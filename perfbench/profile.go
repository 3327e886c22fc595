package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes CPU time to layers from a runtime/pprof CPU
// profile. Work that runs inside simulator events (scheduler dispatch,
// wait-queue retries, event pops) has no call the benchmark could time,
// so the profile is the only way to see it. The standard library writes
// profiles but cannot read them, so this file decodes the few fields of
// the profile.proto format the attribution needs.

// Profile message fields (github.com/google/pprof/proto/profile.proto).
const (
	fieldSampleType  = 1
	fieldSample      = 2
	fieldLocation    = 4
	fieldFunction    = 5
	fieldStringTable = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4

	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2

	fieldValueTypeType = 1
)

type pbField struct {
	num  int
	wire int
	v    uint64 // varint or fixed value
	b    []byte // length-delimited payload
}

var errProto = errors.New("malformed profile")

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// fields calls fn for each field of a protobuf message.
func fields(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := uvarint(b)
		if n == 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// profileBuckets decodes a gzipped CPU profile and returns CPU seconds
// per layer (see layerOf).
func profileBuckets(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("opening profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}

	type sample struct{ locs, values []uint64 }
	var (
		samples     []sample
		sampleTypes []uint64 // string index of each value's type
		strs        []string
		funcName    = map[uint64]uint64{} // function id → name string index
		locFunc     = map[uint64]uint64{} // location id → innermost function id
	)
	err = fields(raw, func(f pbField) error {
		switch f.num {
		case fieldSampleType:
			return fields(f.b, func(g pbField) error {
				if g.num == fieldValueTypeType {
					sampleTypes = append(sampleTypes, g.v)
				}
				return nil
			})
		case fieldSample:
			var s sample
			err := fields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case fieldSampleLocation:
					s.locs, err = varints(g, s.locs)
				case fieldSampleValue:
					s.values, err = varints(g, s.values)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case fieldLocation:
			var id, fn uint64
			first := true
			err := fields(f.b, func(g pbField) error {
				switch g.num {
				case fieldLocationID:
					id = g.v
				case fieldLocationLine:
					// The first line is the innermost inlined function.
					if first {
						first = false
						return fields(g.b, func(h pbField) error {
							if h.num == fieldLineFunction {
								fn = h.v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case fieldFunction:
			var id, name uint64
			err := fields(f.b, func(g pbField) error {
				switch g.num {
				case fieldFunctionID:
					id = g.v
				case fieldFunctionName:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
			return err
		case fieldStringTable:
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("profile has no cpu sample type")
	}
	out := map[string]float64{}
	stack := make([]string, 0, 64)
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errProto
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			stack = append(stack, str(funcName[locFunc[loc]]))
		}
		out[layerOf(stack)] += float64(s.values[cpu]) / 1e9
	}
	return out, nil
}

// gcFrames mark a sample as allocation or garbage-collection work.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.GC",
	"runtime.growslice", "runtime.newobject", "runtime.makeslice",
}

// layerOf attributes one sampled stack (leaf first) to a layer:
// "runtime" when any frame allocates or collects garbage; otherwise the
// nearest repository package from the leaf, so standard-library helpers
// (map internals, math, time) count toward the layer that called them.
// The schedule clock stands in for time.Now and is skipped the same way.
// The expiry wheel belongs to the online layer; the benchmark's own code
// is "bench"; a stack with no repository frame is "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "runtime"
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.(*schedClock)") {
			continue
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(fn, "feasregion/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if pkg == "expiry" {
			return "online"
		}
		return pkg
	}
	return "other"
}
