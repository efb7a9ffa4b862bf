package fourindex

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"fourindex/internal/chem"
	"fourindex/internal/ga"
	"fourindex/internal/sym"
)

// goldenC pins the SHA-256 of every schedule's packed C at n=12, P=3,
// computed with the classical blocked GEMM; the 4x2 register
// micro-kernel that replaced it reproduces them. Overlap must not move a
// bit, so one digest covers both settings. A change to any GEMM kernel, tile
// loop or accumulation order that alters a single bit of C fails here
// against these constants rather than against a second run of itself.
var goldenC = map[Scheme]string{
	Unfused:         "f503a3eecc48d2f0d0aae8f1e30da3657d1d214ed33954bc8745702585c51184",
	Fused1234Pair:   "f503a3eecc48d2f0d0aae8f1e30da3657d1d214ed33954bc8745702585c51184",
	Recompute:       "f503a3eecc48d2f0d0aae8f1e30da3657d1d214ed33954bc8745702585c51184",
	FullyFused:      "2139bfaca54f7bc816c615bd80680c4e2ab3e038566a888fbc3537159eb6a047",
	FullyFusedInner: "2139bfaca54f7bc816c615bd80680c4e2ab3e038566a888fbc3537159eb6a047",
	Fused123:        "f503a3eecc48d2f0d0aae8f1e30da3657d1d214ed33954bc8745702585c51184",
	NWChemFused:     "f503a3eecc48d2f0d0aae8f1e30da3657d1d214ed33954bc8745702585c51184",
	Hybrid:          "f503a3eecc48d2f0d0aae8f1e30da3657d1d214ed33954bc8745702585c51184",
}

// digestC hashes C's float64 bit patterns in packed order.
func digestC(c *sym.PackedC) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range c.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenCChecksums(t *testing.T) {
	sp := chem.MustSpec(12, 2, 11)
	base := Options{Spec: sp, Procs: 3, Mode: ga.Execute, TileN: 4, TileL: 3}
	for _, scheme := range append(append([]Scheme{}, allSchemes...), NWChemFused, Hybrid) {
		want, ok := goldenC[scheme]
		if !ok {
			t.Errorf("%v: no golden checksum", scheme)
			continue
		}
		for _, overlap := range []bool{false, true} {
			o := base
			o.Overlap = overlap
			res, err := Run(scheme, o)
			if err != nil {
				t.Fatalf("%v overlap=%v: %v", scheme, overlap, err)
			}
			if got := digestC(res.C); got != want {
				t.Errorf("%v overlap=%v: sha256(C) = %s, golden %s", scheme, overlap, got, want)
			}
		}
	}
}
