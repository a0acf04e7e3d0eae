package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

const internalPrefix = "tlsshortcuts/internal/"

// sample is one CPU profile sample: its call stack, innermost frame
// first, and the CPU time it stands for.
type sample struct {
	stack []string
	cpuNs int64
}

// attribute charges one stack to exactly one CPU row:
//
//   - the innermost crypto/ecdsa signing or verifying frame, crypto/ecdh
//     frame, or internal/ffdh frame names a public-key row;
//   - otherwise the innermost tlsshortcuts/internal/<pkg> frame names
//     "<pkg>.cpu_s" (stdlib AES-GCM, SHA and HMAC land on their caller);
//   - otherwise a GC worker stack is runtime.gc, anything else
//     runtime.other.
func attribute(stack []string) string {
	for _, fn := range stack {
		pkg, name := splitFunc(fn)
		switch pkg {
		case "crypto/ecdsa", "crypto/internal/fips140/ecdsa":
			switch {
			case strings.HasPrefix(name, "Sign"), strings.HasPrefix(name, "sign"):
				return rowECDSASign
			case strings.HasPrefix(name, "Verify"), strings.HasPrefix(name, "verify"):
				return rowECDSAVerify
			}
		case "crypto/ecdh", "crypto/internal/fips140/ecdh":
			return rowECDH
		case internalPrefix + "ffdh":
			return rowFFDH
		}
	}
	for _, fn := range stack {
		pkg, _ := splitFunc(fn)
		if !strings.HasPrefix(pkg, internalPrefix) {
			continue
		}
		p := strings.TrimPrefix(pkg, internalPrefix)
		for _, known := range internalPkgs {
			if p == known {
				return p + ".cpu_s"
			}
		}
		return rowInternalMisc
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return rowGC
		}
	}
	return rowOther
}

// splitFunc splits a profile function name such as
// "crypto/internal/fips140/ecdsa.Sign[...]" or
// "tlsshortcuts/internal/keyex.(*Policy).epoch" into its package path and
// the first name element after it, skipping a method receiver.
func splitFunc(fn string) (pkg, name string) {
	base := fn
	if i := strings.IndexByte(base, '['); i >= 0 {
		base = base[:i]
	}
	slash := strings.LastIndexByte(base, '/')
	dot := strings.IndexByte(base[slash+1:], '.')
	if dot < 0 {
		return base, ""
	}
	pkg = base[:slash+1+dot]
	for _, el := range strings.Split(base[len(pkg)+1:], ".") {
		if !strings.HasPrefix(el, "(") {
			return pkg, el
		}
	}
	return pkg, ""
}

// attributeAll sums the samples into CPU seconds per row. Every sample
// lands on exactly one row, so the rows add up to total.
func attributeAll(samples []sample) (rows map[string]float64, total float64) {
	ns := map[string]int64{}
	var sum int64
	for _, s := range samples {
		ns[attribute(s.stack)] += s.cpuNs
		sum += s.cpuNs
	}
	rows = make(map[string]float64, len(ns))
	for r, v := range ns {
		rows[r] = float64(v) / 1e9
	}
	return rows, float64(sum) / 1e9
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes, keeping for each sample its
// function stack and its cpu/nanoseconds value. Only the fields the
// attribution needs are read.
func parseCPUProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs      []string
		typeIdx   []uint64                // sample_type[i].type string index
		samples   []rawSample             //
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name string index
	)
	err = pbFields(raw, func(f int, wt int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return pbFields(b, func(f, wt int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbVarints(s.locs, wt, v, b)
				case 2:
					s.values = pbVarints(s.values, wt, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, wt int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f, wt int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
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
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		var stack []string
		for _, l := range s.locs {
			for _, fid := range locLines[l] {
				stack = append(stack, str(funcNames[fid]))
			}
		}
		out = append(out, sample{stack: stack, cpuNs: int64(s.values[cpu])})
	}
	return out, nil
}

// pbFields walks the top-level fields of one protobuf message, calling fn
// with the field number, wire type, and either the varint value or the
// length-delimited payload. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field, wt int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wt == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("profile: truncated fixed field")
			}
			b = b[w:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints appends a repeated varint field's values, packed or not.
func pbVarints(dst []uint64, wt int, v uint64, packed []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// pbVarint decodes one base-128 varint; n is 0 on malformed input.
func pbVarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
