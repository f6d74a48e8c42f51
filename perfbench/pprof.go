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

// A small reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto), enough to group samples by package with the standard
// library alone.

// cpuLayers are the layers the traced run reports a CPU share for, by
// their package's last path element ("nethttp" is net/http, "json" is
// encoding/json, "eqasm" the public package).
var cpuLayers = []string{
	"eqasm", "core", "microarch", "quantum", "stabilizer", "plan",
	"service", "httpapi", "nethttp", "json",
}

// layerOf maps a package path to the layer a sample in it is charged
// to, or "" for packages that charge their caller instead (the runtime,
// sync, math, the network stack under net/http, ...).
func layerOf(pkg string) string {
	switch {
	case pkg == "eqasm":
		return "eqasm"
	case strings.HasPrefix(pkg, "eqasm/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "eqasm/internal/"), "/", 2)[0]
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "nethttp"
	case pkg == "encoding/json":
		return "json"
	case pkg == "main":
		return "bench"
	}
	return ""
}

// pkgOf extracts the package path from a symbol name such as
// "eqasm/internal/microarch.(*Machine).Run".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// shares is CPU time per layer from one profile.
type shares struct {
	ns    map[string]float64
	total float64
}

func (s shares) frac(layer string) float64 { return ratio(s.ns[layer], s.total) }

// layerShares charges every sample of a CPU profile to the innermost
// frame that belongs to a layer; samples with no such frame (garbage
// collection workers, the scheduler) are charged to "runtime".
func layerShares(profile []byte) (shares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return shares{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return shares{}, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return shares{}, err
	}
	out := shares{ns: map[string]float64{}}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(pkgOf(p.strings[p.funcName[fn]])); l != "" {
					layer = l
					break stack
				}
			}
		}
		out.ns[layer] += v
		out.total += v
	}
	return out, nil
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errProto = errors.New("malformed profile")

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4
	lineFn  = 1

	fnID   = 1
	fnName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s sample
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					return varints(wire, v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return varints(wire, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return fields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFn {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fnID:
					id = v
				case fnName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("%w: string index %d out of range", errProto, idx)
		}
	}
	return p, nil
}

// fields walks the fields of one protobuf message, calling f with the
// varint value (wire type 0) or the payload (wire type 2) of each.
func fields(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, data []byte, f func(uint64)) error {
	if wire == 0 {
		f(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		f(x)
		data = data[n:]
	}
	return nil
}
