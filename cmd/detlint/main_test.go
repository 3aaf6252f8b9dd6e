package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeededInjections builds a throwaway module containing one
// violation of each class the suite enforces and asserts every analyzer
// fires — the CI-facing proof that a regression in any class cannot
// land silently.
func TestSeededInjections(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module injected\n\ngo 1.24\n")
	write("bad/bad.go", `package bad

import (
	"math/rand"
	"time"
)

func MapOrderLeak(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func WallClock() time.Time {
	return time.Now()
}

func GlobalRandomness(n int) int {
	return rand.Intn(n)
}

func FloatFold(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}
`)
	write("effects/effects.go", `package effects

//det:hotpath steady-state dispatch must not allocate
func HotLookup(n int) []int {
	return make([]int, n)
}

func RacyLaunch() int {
	x := 0
	go func() {
		x++
	}()
	return x
}
`)
	diags, npkgs, err := lint(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if npkgs != 2 {
		t.Fatalf("analyzed %d packages, want 2", npkgs)
	}
	got := make(map[string]int)
	for _, d := range diags {
		got[d.Analyzer]++
	}
	for _, name := range []string{
		"maprange", "walltime", "globalrand", "floatrange",
		"hotalloc", "goroutinewrite",
	} {
		if got[name] == 0 {
			t.Errorf("injected %s violation not detected; findings: %v", name, diags)
		}
	}
}

// TestRepoIsClean runs the full suite over this repository — the same
// gate CI runs — so `go test ./...` alone already enforces the static
// determinism contract.
func TestRepoIsClean(t *testing.T) {
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	diags, npkgs, err := lint(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if npkgs == 0 {
		t.Fatal("no packages analyzed")
	}
	if len(diags) != 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString("\n  " + d.String())
		}
		t.Fatalf("detlint findings in the tree:%s", b.String())
	}
}
