package detlint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The determinism-annotation grammar (DESIGN.md §11): a line comment of
// the form
//
//	//det:<tag> <justification>
//
// written either on the line immediately above the statement it excuses
// or trailing on the same line. The justification is mandatory — the
// meta-test in annot_audit_test.go fails the build on a bare tag — so
// every suppression stays auditable.
const (
	// TagUnordered excuses a map-range loop whose order-insensitivity the
	// author has argued but the maprange classifier cannot prove.
	TagUnordered = "unordered"
	// TagWallclock excuses a wall-clock read that feeds measured-time
	// reporting (never a simulation decision).
	TagWallclock = "wallclock"
	// TagFloatfold excuses a floating-point fold over map-range order; the
	// justification must say why the fold result is still bit-stable.
	TagFloatfold = "floatfold"
	// TagHotpath marks a function as steady-state hot: the hotalloc
	// analyzer forbids allocation sites in it and its module callees.
	TagHotpath = "hotpath"
	// TagHotalloc excuses one allocation site on a hot path; the
	// justification must argue why the allocation is amortized or cold.
	TagHotalloc = "hotalloc"
)

// KnownTags lists every valid annotation tag.
var KnownTags = []string{
	TagUnordered, TagWallclock, TagFloatfold, TagHotpath, TagHotalloc,
}

// An Annotation is one parsed //det: comment.
type Annotation struct {
	Tag    string // one of KnownTags ("unordered", "hotpath", …)
	Reason string // justification text after the tag; "" when bare
	Pos    token.Pos
}

// ParseAnnotation parses a comment's text, returning ok=false when the
// comment is not a //det: annotation at all. Unknown tags parse with
// ok=true so audits can flag them.
func ParseAnnotation(text string) (Annotation, bool) {
	body, found := strings.CutPrefix(text, "//det:")
	if !found {
		return Annotation{}, false
	}
	tag, reason, _ := strings.Cut(body, " ")
	return Annotation{Tag: strings.TrimSpace(tag), Reason: strings.TrimSpace(reason)}, true
}

// Annotations indexes every //det: comment of a package by file and line
// so analyzers can answer "is this statement excused?" in O(1).
type Annotations struct {
	fset *token.FileSet
	// byLine maps filename → line → annotation on (or ending on) it.
	byLine map[string]map[int]Annotation
}

// IndexAnnotations scans the comment lists of files (which must have been
// parsed with parser.ParseComments).
func IndexAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{fset: fset, byLine: make(map[string]map[int]Annotation)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ann, ok := ParseAnnotation(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				ann.Pos = c.Slash
				lines := a.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]Annotation)
					a.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = ann
			}
		}
	}
	return a
}

// For returns the annotation with the given tag covering the node at pos:
// either trailing on the node's line or alone on the line above it. The
// bool reports whether one was found; a bare (reason-less) annotation
// still counts here — keeping the contract honest is the audit test's
// job, not the analyzer's.
func (a *Annotations) For(pos token.Pos, tag string) (Annotation, bool) {
	if a == nil {
		return Annotation{}, false
	}
	p := a.fset.Position(pos)
	lines := a.byLine[p.Filename]
	if lines == nil {
		return Annotation{}, false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		if ann, ok := lines[line]; ok && ann.Tag == tag {
			return ann, true
		}
	}
	return Annotation{}, false
}
