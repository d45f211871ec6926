package tuner

import (
	"encoding/json"
	"os"
	"testing"
)

// malformedSets are artifacts DecodeSet must reject with an error: a
// null surface, and a surface whose hash is valid (Hash does not cover
// Best) but whose stored Best is shorter than its cell count.
func malformedSets(t testing.TB, artifact []byte) map[string][]byte {
	var set Set
	if err := json.Unmarshal(artifact, &set); err != nil {
		t.Fatal(err)
	}
	set.Surfaces[0].Best = set.Surfaces[0].Best[:1]
	short, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"null surface": []byte(`{"hashes":["x"],"surfaces":[null]}`),
		"short best":   short,
	}
}

func committedArtifact(t testing.TB) []byte {
	buf, err := os.ReadFile("../../results/tuner_surface.json")
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestDecodeSetRejectsMalformed(t *testing.T) {
	for name, buf := range malformedSets(t, committedArtifact(t)) {
		if _, err := DecodeSet(buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeSet: no input panics DecodeSet, and every set it accepts
// survives EncodeSet -> DecodeSet with the same content hashes.
func FuzzDecodeSet(f *testing.F) {
	artifact := committedArtifact(f)
	f.Add(artifact)
	for _, buf := range malformedSets(f, artifact) {
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		surfaces, err := DecodeSet(buf)
		if err != nil {
			return
		}
		again, err := EncodeSet(surfaces...)
		if err != nil {
			t.Fatalf("accepted set does not re-encode: %v", err)
		}
		back, err := DecodeSet(again)
		if err != nil {
			t.Fatalf("re-encoded set rejected: %v", err)
		}
		if len(back) != len(surfaces) {
			t.Fatalf("round trip kept %d of %d surfaces", len(back), len(surfaces))
		}
		for i, s := range surfaces {
			if got, want := back[i].Hash(), s.Hash(); got != want {
				t.Fatalf("surface %d hash %s after round trip, was %s", i, got, want)
			}
		}
	})
}
