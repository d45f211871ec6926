// Package tuner turns the paper's central observation — the best
// multicast algorithm flips with (architecture, group size, message
// size, t_hold/t_end) and with fault state — into a decision layer:
//
//   - Surface is a precomputed crossover surface: a grid of measured
//     per-algorithm latencies over (k, bytes, fault %) for one
//     platform, compiled into a compact best-algorithm lookup with
//     deterministic tie-breaking. It round-trips through JSON and is
//     content-hashed, so a surface built once (from runner cells, which
//     are themselves cached) is a cacheable artifact under results/.
//   - Policy is the runtime selector: it answers admission-time
//     algorithm queries from the surface and recalibrates online from
//     observed completion latencies over a sliding window of the sim
//     event clock, switching algorithms live when drift moves a
//     crossover. It plugs directly into traffic.Config.Tuner; a
//     single-shot caller runs its PickFor.
//
// Everything here is deterministic: surfaces depend only on the
// measurements fed in, and Policy's state is a pure function of its
// call history, which the traffic engine produces in event-queue
// order. No wall clock is consulted anywhere (detclock-clean).
package tuner

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Unmeasured is the Latency sentinel for a grid point with no
// surviving measurement (every trial failed): selection treats it as
// infinitely bad. A negative sentinel keeps the JSON round trip exact
// (IEEE infinities do not survive encoding/json).
const Unmeasured = -1

// Surface is the crossover surface for one platform: mean measured
// latency of every candidate algorithm at every grid point, plus the
// compiled best-algorithm index per point. Axes must be strictly
// ascending; lookups clamp-floor each coordinate onto its axis, so a
// query between grid points uses the nearest point not above it.
type Surface struct {
	// Platform labels the fabric the surface was measured on.
	Platform string `json:"platform"`
	// Algorithms are the candidate names; their order is the selection
	// tie-break (equal latencies pick the lowest index) and the index
	// vocabulary of Best, Policy choices and traffic.RequestResult.Algo.
	Algorithms []string `json:"algorithms"`
	// Ks, Bytes and FaultPcts are the grid axes: multicast group size,
	// message size, and injected dead-link percentage.
	Ks        []int `json:"ks"`
	Bytes     []int `json:"bytes"`
	FaultPcts []int `json:"fault_pcts"`
	// Latency[cell*len(Algorithms)+ai] is algorithm ai's mean measured
	// latency at the cell (Unmeasured when no trial survived), with
	// cell = (ki*len(Bytes)+bi)*len(FaultPcts)+pi.
	Latency []float64 `json:"latency"`
	// Best is the compiled argmin per cell, filled by Compile.
	Best []int `json:"best"`
}

// New allocates an empty surface over the given axes, every latency
// Unmeasured. Fill with Set, then Compile.
func New(platform string, algos []string, ks, bytes, pcts []int) *Surface {
	s := &Surface{
		Platform:   platform,
		Algorithms: append([]string(nil), algos...),
		Ks:         append([]int(nil), ks...),
		Bytes:      append([]int(nil), bytes...),
		FaultPcts:  append([]int(nil), pcts...),
	}
	s.Latency = make([]float64, s.cells()*len(algos))
	for i := range s.Latency {
		s.Latency[i] = Unmeasured
	}
	return s
}

func (s *Surface) cells() int { return len(s.Ks) * len(s.Bytes) * len(s.FaultPcts) }

// Set records algorithm ai's mean latency at grid point (ki, bi, pi).
func (s *Surface) Set(ki, bi, pi, ai int, v float64) {
	s.Latency[((ki*len(s.Bytes)+bi)*len(s.FaultPcts)+pi)*len(s.Algorithms)+ai] = v
}

// At returns algorithm ai's latency at grid point (ki, bi, pi).
func (s *Surface) At(ki, bi, pi, ai int) float64 {
	return s.Latency[((ki*len(s.Bytes)+bi)*len(s.FaultPcts)+pi)*len(s.Algorithms)+ai]
}

// validate checks the surface's shape invariants.
func (s *Surface) validate() error {
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("tuner: surface %q has no algorithms", s.Platform)
	}
	if len(s.Algorithms) > 127 {
		return fmt.Errorf("tuner: surface %q has %d algorithms (max 127)", s.Platform, len(s.Algorithms))
	}
	for name, axis := range map[string][]int{"ks": s.Ks, "bytes": s.Bytes, "fault_pcts": s.FaultPcts} {
		if len(axis) == 0 {
			return fmt.Errorf("tuner: surface %q axis %s is empty", s.Platform, name)
		}
		for i := 1; i < len(axis); i++ {
			if axis[i] <= axis[i-1] {
				return fmt.Errorf("tuner: surface %q axis %s not strictly ascending at %v", s.Platform, name, axis)
			}
		}
	}
	if want := s.cells() * len(s.Algorithms); len(s.Latency) != want {
		return fmt.Errorf("tuner: surface %q has %d latencies, want %d", s.Platform, len(s.Latency), want)
	}
	return nil
}

// Compile validates the surface and fills Best: per cell, the
// lowest-index algorithm among those with the minimal measured
// latency, skipping Unmeasured entries. A cell where every algorithm
// is Unmeasured compiles to index 0 — with nothing measured every
// choice is equally blind, and the fixed pick keeps the artifact
// deterministic.
func (s *Surface) Compile() error {
	if err := s.validate(); err != nil {
		return err
	}
	na := len(s.Algorithms)
	s.Best = make([]int, s.cells())
	for c := range s.Best {
		s.Best[c] = argmin(s.Latency[c*na:(c+1)*na], nil)
	}
	return nil
}

// argmin picks the lowest-index minimum of lat, each entry optionally
// scaled by the matching drift factor; entries < 0 (Unmeasured) are
// skipped. All-unmeasured returns 0.
func argmin(lat, drift []float64) int {
	best, bestV := 0, -1.0
	for i, v := range lat {
		if v < 0 {
			continue
		}
		if drift != nil {
			v *= drift[i]
		}
		if bestV < 0 || v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// axisFloor returns the index of the largest axis value <= v, clamped
// to 0 below the axis.
func axisFloor(axis []int, v int) int {
	i := 0
	for i+1 < len(axis) && axis[i+1] <= v {
		i++
	}
	return i
}

// CellIndex maps a workload point onto the grid: each coordinate
// clamp-floors onto its axis.
//
// Selection runs per admitted request inside the traffic engine's
// event loop; it must not allocate.
//
//lint:hotpath
func (s *Surface) CellIndex(k, bytes, pct int) int {
	return (axisFloor(s.Ks, k)*len(s.Bytes)+axisFloor(s.Bytes, bytes))*len(s.FaultPcts) + axisFloor(s.FaultPcts, pct)
}

// Select returns the compiled best algorithm index for a workload
// point. Compile must have run.
//
//lint:hotpath static selection is the admission-time fast path.
func (s *Surface) Select(k, bytes, pct int) int {
	return s.Best[s.CellIndex(k, bytes, pct)]
}

// Hash is the surface's content hash: lowercase hex SHA-256 of the
// canonical text encoding, covering platform, algorithms, axes and
// every latency (floats in Go's shortest exact 'g' form, so the hash
// is stable across encode/decode round trips).
func (s *Surface) Hash() string {
	var b strings.Builder
	b.WriteString("tuner-surface|platform=")
	b.WriteString(s.Platform)
	b.WriteString("|algos=")
	b.WriteString(strings.Join(s.Algorithms, ","))
	for _, axis := range [][]int{s.Ks, s.Bytes, s.FaultPcts} {
		b.WriteByte('|')
		for i, v := range axis {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
	}
	b.WriteString("|lat=")
	for i, v := range s.Latency {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// Set is the serializable artifact form: one or more platform surfaces
// plus their content hashes, as committed under results/.
type Set struct {
	// Hashes[i] is Surfaces[i].Hash(), recorded so a reader can verify
	// the artifact without recomputing the sweep.
	Hashes   []string   `json:"hashes"`
	Surfaces []*Surface `json:"surfaces"`
}

// EncodeSet serializes surfaces (with their content hashes) as
// deterministic indented JSON.
func EncodeSet(surfaces ...*Surface) ([]byte, error) {
	set := Set{Surfaces: surfaces}
	for _, s := range surfaces {
		if err := s.validate(); err != nil {
			return nil, err
		}
		set.Hashes = append(set.Hashes, s.Hash())
	}
	buf, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// DecodeSet parses an EncodeSet artifact, verifying each surface's
// recorded content hash and recompiling Best (a tampered or corrupt
// artifact fails loudly rather than mis-selecting silently).
func DecodeSet(buf []byte) ([]*Surface, error) {
	var set Set
	if err := json.Unmarshal(buf, &set); err != nil {
		return nil, fmt.Errorf("tuner: decode surface set: %w", err)
	}
	if len(set.Hashes) != len(set.Surfaces) {
		return nil, fmt.Errorf("tuner: surface set has %d hashes for %d surfaces", len(set.Hashes), len(set.Surfaces))
	}
	for i, s := range set.Surfaces {
		if s == nil {
			return nil, fmt.Errorf("tuner: surface set entry %d is null", i)
		}
		if got := s.Hash(); got != set.Hashes[i] {
			return nil, fmt.Errorf("tuner: surface %q content hash mismatch: artifact says %s, content is %s", s.Platform, set.Hashes[i], got)
		}
		stored := s.Best
		if err := s.Compile(); err != nil {
			return nil, err
		}
		if stored != nil {
			// Hash does not cover Best, so its length is checked here.
			if len(stored) != len(s.Best) {
				return nil, fmt.Errorf("tuner: surface %q stores %d best picks for %d cells", s.Platform, len(stored), len(s.Best))
			}
			for c, b := range s.Best {
				if stored[c] != b {
					return nil, fmt.Errorf("tuner: surface %q cell %d: stored best %d, recompiled %d", s.Platform, c, stored[c], b)
				}
			}
		}
	}
	return set.Surfaces, nil
}
