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

// layers are the simulator's host-time layers, in report order. "other"
// collects samples whose whole stack lies outside them (the standard
// library and this harness), so the shares of one profile sum to 1.
var layers = []string{"wormhole", "topology", "fault", "delivery", "eventq", "planner", "tuner", "runner", "runtime", "other"}

// layerOf maps a package path to its layer, or "" for a package that is
// not a layer: the standard library outside the runtime, and this
// harness. Their frames are charged to the nearest caller that is.
func layerOf(pkg string) string {
	switch pkg {
	case "repro/internal/wormhole":
		return "wormhole"
	case "repro/internal/mesh", "repro/internal/bmin":
		return "topology"
	case "repro/internal/fault":
		return "fault"
	case "repro/internal/traffic", "repro/internal/mcastsim", "repro/internal/recover":
		return "delivery"
	case "repro/internal/sim":
		return "eventq"
	case "repro/internal/core", "repro/internal/chain", "repro/internal/plan":
		return "planner"
	case "repro/internal/tuner":
		return "tuner"
	case "repro/internal/runner", "repro/internal/exp":
		return "runner"
	case "runtime":
		return "runtime"
	}
	if strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return ""
}

// funcPackage returns the package path of a fully qualified Go function
// name such as "repro/internal/wormhole.(*Network).stepFast" or
// "slices.SortFunc[go.shape.int]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOfStack buckets one sample by its leaf frame (stack is leaf
// first). runtime.asyncPreempt is the frame the runtime's preemption
// signal pushes onto whatever was running, so it is skipped and the
// interrupted caller takes the sample; frames of packages outside every
// layer pass the sample on to their caller.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if fn == "runtime.asyncPreempt" {
			continue
		}
		if l := layerOf(funcPackage(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// sample is one decoded CPU profile sample.
type sample struct {
	count  int64
	stack  []string // function names, leaf first, inlined frames expanded
	labels map[string]string
}

// layerShares returns each layer's share of the samples carrying
// label key=value, and how many samples that is.
func layerShares(samples []sample, key, value string) (map[string]float64, int64) {
	counts := make(map[string]int64, len(layers))
	var total int64
	for _, s := range samples {
		if s.labels[key] != value {
			continue
		}
		counts[layerOfStack(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, total
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes
// it, keeping only what layer bucketing needs: each sample's count
// (its first value), its stack and its string labels. It is a reader
// for the subset of the protobuf wire format the profile uses.
func parseProfile(gz []byte) ([]sample, error) {
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
		count  int64
		labels [][2]int64 // string-table indices of key and value
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // location_id
					return varints(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // value; the first is the sample count
					return varints(v, data, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				case 3: // Label
					var l [2]int64
					err := fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							l[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d outside table of %d", i, len(strs))
		}
		return strs[i], nil
	}
	out := make([]sample, len(samples))
	for i, rs := range samples {
		s := sample{count: rs.count, labels: map[string]string{}}
		for _, loc := range rs.locs {
			for _, f := range locs[loc] {
				name, err := str(funcs[f])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		for _, l := range rs.labels {
			k, err := str(l[0])
			if err != nil {
				return nil, err
			}
			v, err := str(l[1])
			if err != nil {
				return nil, err
			}
			s.labels[k] = v
		}
		out[i] = s
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks the protobuf fields of one message. A varint or fixed
// field is passed as v; a length-delimited field as data.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
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
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated integer field that may be packed (data)
// or a single unpacked element (v).
func varints(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
