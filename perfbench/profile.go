package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Host-time shares come from a CPU profile of the traced run, decoded
// here directly from the pprof wire format (a gzipped protocol
// buffer) so that nothing beyond the standard library is needed.

// sharePackages are the import paths whose self time is reported on
// its own; everything else is "other" and the Go runtime is "runtime".
var sharePackages = map[string]string{
	"repro/internal/machine":     "machine",
	"repro/internal/sim":         "sim",
	"repro/internal/hypervisor":  "hypervisor",
	"repro/internal/replication": "replication",
}

// shareNames lists the host_share.<name> suffixes in report order.
var shareNames = []string{"machine", "sim", "hypervisor", "replication", "runtime", "other"}

// packageOf returns the import path of a Go function symbol such as
// "repro/internal/sim.(*Proc).Sleep.func1".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// shareOf maps a function symbol to its host_share bucket.
func shareOf(fn string) string {
	pkg := packageOf(fn)
	if s, ok := sharePackages[pkg]; ok {
		return s
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profileCPU reads a CPU profile and returns the sampled self (leaf)
// CPU nanoseconds of each bucket.
func profileCPU(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	out := map[string]float64{}
	for _, b := range shareNames {
		out[b] = 0
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // CPU profiles: [samples, cpu ns]
		name := "?"
		if loc, ok := p.locFunc[s.locs[0]]; ok {
			name = p.strs[p.funcName[loc]]
		}
		out[shareOf(name)] += float64(v)
	}
	return out, nil
}

// shares turns per-bucket CPU time into shares of the total.
func shares(cpu map[string]float64) map[string]float64 {
	total := 0.0
	for _, v := range cpu {
		total += v
	}
	out := map[string]float64{}
	for _, b := range shareNames {
		out[b] = 0
		if total > 0 {
			out[b] = cpu[b] / total
		}
	}
	return out
}

// profile is the subset of profile.proto this program reads.
type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strs     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// pbField is one decoded protocol-buffer field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint or fixed value
	b    []byte // length-delimited payload
}

var errTruncated = errors.New("truncated protocol buffer")

func pbVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n, err = pbVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // sample
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s sample
			var vals []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					if s.locs, err = pbUints(s.locs, g); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbUints(vals, g); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			haveLine := false
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line; the first one is the innermost inlined frame
					if haveLine {
						continue
					}
					ls, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fn, haveLine = l.v, true
						}
					}
				}
			}
			if haveLine {
				p.locFunc[id] = fn
			}
		case 5: // function
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcName[id] = name
		case 6: // string table
			p.strs = append(p.strs, string(f.b))
		}
	}
	for _, ix := range p.funcName {
		if ix < 0 || int(ix) >= len(p.strs) {
			return nil, fmt.Errorf("function name index %d outside the string table", ix)
		}
	}
	return p, nil
}
