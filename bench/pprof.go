package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Profile label that marks samples taken inside timed calls.
const (
	profLabel = "bench"
	profTimed = "timed"
)

// Functions whose cumulative CPU share is reported.
const (
	fnReallocate = "repro/internal/netsim.(*Fabric).reallocate"
	fnAllocRun   = "repro/internal/core.(*allocator).run"
	fnBuildApps  = "repro/internal/core.(*Session).buildApps"
	fnPoolReset  = "repro/internal/core.(*execPool).reset"
)

var cumFuncs = []string{fnReallocate, fnAllocRun, fnBuildApps, fnPoolReset}

// gcFuncs mark a sample as garbage-collection work when on its stack.
var gcFuncs = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// profileSummary is a CPU profile reduced the way `go tool pprof -top` would
// be read for this report: self time per repository package and cumulative
// time of the named functions, over the samples taken inside timed calls,
// plus the garbage collector's time over all samples. Values are CPU ns.
type profileSummary struct {
	total, timed, gc float64
	self             map[string]float64 // internal package name → self ns
	cum              map[string]float64 // cumFuncs entry → cumulative ns
}

// share returns ns as a share of the timed samples.
func (p *profileSummary) share(ns float64) float64 {
	if p.timed == 0 {
		return 0
	}
	return ns / p.timed
}

// readProfile reduces a gzipped pprof CPU profile written by runtime/pprof.
func readProfile(path string) (*profileSummary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return p.summarize(), nil
}

// rawProfile holds the parts of profile.proto the summary needs. Strings
// stay indexes into the string table until summarize resolves them.
type rawProfile struct {
	valueUnits []int64 // sample_type[i].unit
	samples    []rawSample
	locLines   map[uint64][]uint64 // location → function ids, innermost first
	funcName   map[uint64]int64    // function → name
	strs       []string
}

type rawSample struct {
	locs   []uint64 // leaf first
	values []int64
	labels [][2]int64 // (key, str)
}

// The protobuf field numbers used below are those of
// github.com/google/pprof/proto/profile.proto.
func parseProfile(data []byte) (*rawProfile, error) {
	p := &rawProfile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 2 {
					p.valueUnits = append(p.valueUnits, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var kv [2]int64
					err := eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}

func (p *rawProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func (p *rawProfile) summarize() *profileSummary {
	out := &profileSummary{self: map[string]float64{}, cum: map[string]float64{}}
	vi := len(p.valueUnits) - 1
	for i, u := range p.valueUnits {
		if p.str(u) == "nanoseconds" {
			vi = i
		}
	}
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		v := float64(s.values[vi])
		out.total += v
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locLines[loc] {
				stack = append(stack, p.str(p.funcName[fn]))
			}
		}
		if containsAny(stack, gcFuncs) {
			out.gc += v
		}
		timed := false
		for _, kv := range s.labels {
			timed = timed || (p.str(kv[0]) == profLabel && p.str(kv[1]) == profTimed)
		}
		if !timed {
			continue
		}
		out.timed += v
		if len(stack) > 0 {
			out.self[packageOf(stack[0])] += v
		}
		for _, fn := range cumFuncs {
			if containsAny(stack, []string{fn}) {
				out.cum[fn] += v
			}
		}
	}
	return out
}

func containsAny(stack, names []string) bool {
	for _, f := range stack {
		for _, n := range names {
			if f == n {
				return true
			}
		}
	}
	return false
}

// packageOf maps a function symbol to the repository module it belongs to
// ("netsim" for repro/internal/netsim.(*Fabric).reallocate), or to its
// import path's first element outside the repository ("runtime").
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain paths
	}
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		return rest[:strings.IndexAny(rest+".", "./")]
	}
	slash := strings.LastIndex(fn, "/")
	return fn[:slash+1+strings.Index(fn[slash+1:]+".", ".")]
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("malformed protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("malformed protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated protobuf bytes")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated varint field in either encoding: one value, or
// a packed run (body non-nil).
func varints(v uint64, body []byte, add func(uint64)) error {
	if body == nil {
		add(v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errors.New("malformed packed varint")
		}
		add(x)
		body = body[n:]
	}
	return nil
}
