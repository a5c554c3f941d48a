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

// selfSamplesByPackage folds a runtime/pprof CPU profile (gzipped
// profile.proto) into self samples per Go package: each sample is charged
// to the innermost function of its leaf location, inlined frames included.
// It reads only the fields it needs: sample.location_id and sample.value,
// location.id and location.line.function_id, function.id and
// function.name, and the string table.
func selfSamplesByPackage(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → innermost function id
		funcName = map[uint64]int64{}  // function id → string index
		strs     []string
	)
	err = forEachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			first := true
			err := forEachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id, leaf first
					ids, err := varints(w, v, b)
					if err == nil && first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
					return err
				case 2: // value[0] is the sample count
					vals, err := varints(w, v, b)
					if err == nil && len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			haveFn := false
			err := forEachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined frame
					if haveFn {
						return nil
					}
					return forEachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fn, haveFn = v, true
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forEachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	out := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := ""
		if fn, ok := locFunc[s.leaf]; ok {
			if si, ok := funcName[fn]; ok && si >= 0 && int(si) < len(strs) {
				name = strs[si]
			}
		}
		out[packageOf(name)] += s.count
		total += s.count
	}
	return out, total, nil
}

// packageOf returns the import path of a Go symbol name such as
// "mmreliable/internal/dsp.(*Plan).Exec" or "runtime.mallocgc".
func packageOf(sym string) string {
	if sym == "" {
		return "unknown"
	}
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // generic instantiation arguments may hold slashes
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// forEachField walks the top-level fields of one protobuf message, handing
// fn the varint value (wire type 0) or the payload (wire type 2).
func forEachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		payload = payload[n:]
	}
	return out, nil
}
