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

// packageShares decodes a runtime/pprof CPU profile and returns, per
// package of this module ("cpu", "cache", ...), the share of all samples
// whose leaf frame — the innermost function, inlined or not — lies in it.
// It reads only the fields it needs from the profile.proto wire format:
// samples (location ids and values), locations (lines' function ids),
// functions (name string index) and the string table.
func packageShares(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type sampleRec struct {
		leaf  uint64
		count int64
	}
	var (
		samples []sampleRec
		locFn   = map[uint64]uint64{} // location id → innermost function id
		fnName  = map[uint64]int64{}  // function id → string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sampleRec
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2:
					n := 0
					return varints(v, b, func(x uint64) {
						if n == 0 {
							s.count = int64(x)
						}
						n++
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost frame
					if !first {
						return nil
					}
					first = false
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	byPkg := map[string]int64{}
	for _, s := range samples {
		total += s.count
		if i := fnName[locFn[s.leaf]]; i >= 0 && int(i) < len(strs) {
			byPkg[funcPackage(strs[i])] += s.count
		}
	}
	shares := map[string]float64{}
	for pkg, n := range byPkg {
		shares[pkg] = ratio(float64(n), float64(total))
	}
	return shares, nil
}

// funcPackage maps a symbol such as "dcra/internal/cpu.(*Machine).step" to
// its package: the module's internal packages by their short name
// ("cpu"), anything else by its full import path ("runtime").
func funcPackage(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	pkg := sym
	if dot >= 0 {
		pkg = sym[:slash+1+dot]
	}
	if short, ok := strings.CutPrefix(pkg, "dcra/internal/"); ok {
		return short
	}
	return pkg
}

var errTruncated = errors.New("reading profile: truncated protobuf")

// fields walks a protobuf message, calling f with each field's number and
// either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("reading profile: unsupported wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field in either encoding: one value
// (unpacked) or a packed run of them.
func varints(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		b = b[n:]
	}
	return nil
}
