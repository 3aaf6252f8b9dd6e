package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped profile.proto that runtime/pprof writes
// and credits CPU samples to the repository's modules. go.mod has no
// dependencies, so the protobuf wire format is read by hand; only the
// fields the attribution needs are kept.

// cpuProfile is the decoded part of a profile: every sample as its stack
// of function names, innermost first (inlined frames expanded), and its
// sample count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// modulePrefix is the import-path prefix of the program's modules.
const modulePrefix = "watter/internal/"

// moduleOf returns the module of a function symbol such as
// "watter/internal/route.(*Planner).planDP", or "" outside the modules.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// moduleSplit is a profile's samples credited to modules. A sample counts
// towards a module's inclusive total if any frame of its stack belongs to
// the module, and towards its self total if the innermost frame inside
// the modules does.
type moduleSplit struct {
	total     int64
	inclusive map[string]int64
	self      map[string]int64
}

func (p *cpuProfile) split() moduleSplit {
	s := moduleSplit{inclusive: map[string]int64{}, self: map[string]int64{}}
	var seen []string
	for i, stack := range p.stacks {
		n := p.counts[i]
		s.total += n
		seen = seen[:0]
		for _, fn := range stack {
			m := moduleOf(fn)
			if m == "" || contains(seen, m) {
				continue
			}
			if len(seen) == 0 {
				s.self[m] += n
			}
			seen = append(seen, m)
			s.inclusive[m] += n
		}
	}
	return s
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// share returns a module count as a fraction of all samples.
func (s moduleSplit) share(counts map[string]int64, module string) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(counts[module]) / float64(s.total)
}

// profile.proto field numbers used below.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

type rawSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes a gzipped CPU profile. Samples are weighed by the
// "samples" value (one per profiling tick).
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location → function IDs, innermost first
		funcName    = map[uint64]int64{}    // function → string index
		strs        []string
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			var t int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == fValueTypeType && w == wireVarint {
					t = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case fProfileSample:
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case fSampleLocation:
					return appendPacked(&s.locs, w, v, b)
				case fSampleValue:
					var vs []uint64
					if err := appendPacked(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == fLineFunction && w == wireVarint {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case fProfileStrings:
			if wire != wireBytes {
				return errors.New("profile: malformed string table")
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	valueIdx := -1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "samples" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no \"samples\" value")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a count")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, errors.New("profile: function name out of range")
				}
				stack = append(stack, strs[idx])
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.values[valueIdx])
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// eachField walks one message's fields, passing varints in v and
// length-delimited payloads in b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case wireFixed64:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case wireFixed32:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		case wireBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// varint) or packed (a length-delimited run of varints).
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	if wire != wireBytes {
		return errors.New("profile: bad repeated varint")
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
