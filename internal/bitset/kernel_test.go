package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

// plainUnion is the reference union: one word at a time, no unrolling.
func plainUnion(dst, src []uint64) int {
	added := 0
	for k := range dst {
		nw := dst[k] | src[k]
		added += bits.OnesCount64(nw ^ dst[k])
		dst[k] = nw
	}
	return added
}

// randomRow fills row i of m, leaving each word zero with probability
// zeroFrac, and returns the mask of its non-zero words.
func randomRow(r *rand.Rand, m *Matrix, i int, zeroFrac float64) *Matrix {
	mask := NewMatrix(1, m.wpr)
	row := m.Row(i)
	for k := range row.words {
		if r.Float64() >= zeroFrac {
			row.words[k] = r.Uint64() & r.Uint64()
		}
	}
	row.trimTail()
	for k, w := range row.words {
		if w != 0 {
			mask.Row(0).Add(k)
		}
	}
	return mask
}

// kernelWidths are row widths that are not multiples of 4 words or of 64
// bits, around the unrolled loop's edges, plus a few that are.
var kernelWidths = []int{1, 63, 64, 65, 127, 129, 191, 192, 255, 257, 319, 3*64 + 1, 5*64 + 7, 7*64 - 1, 9 * 64, 13*64 + 33}

func TestUnionKernelsMatchPlainLoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, width := range kernelWidths {
		for _, zeroFrac := range []float64{0, 0.3, 0.7, 0.95, 1} {
			for trial := 0; trial < 8; trial++ {
				m := NewMatrix(2, width)
				mask := randomRow(r, m, 0, zeroFrac)
				randomRow(r, m, 1, zeroFrac)
				src := m.Row(0).Clone()
				want := m.Row(1).Clone()
				wantAdded := plainUnion(want.words, src.words)

				check := func(name string, added int, got *Set) {
					t.Helper()
					if added != wantAdded || !got.Equal(want) {
						t.Fatalf("width %d zero %.2f: %s added %d, want %d; equal=%v",
							width, zeroFrac, name, added, wantAdded, got.Equal(want))
					}
				}
				row := m.Row(1).Clone()
				check("UnionWith", row.UnionWith(src), row)

				for _, name := range []string{"UnionRow", "UnionRowMasked", "UnionSet"} {
					d := NewMatrix(1, width)
					d.Row(0).CopyFrom(m.Row(1))
					var added int
					switch name {
					case "UnionRow":
						added = d.UnionRow(0, m, 0)
					case "UnionRowMasked":
						added = d.UnionRowMasked(0, m, 0, mask)
					case "UnionSet":
						added = d.UnionSet(0, src)
					}
					check(name, added, d.Row(0))
				}
			}
		}
	}
}

// TestUnionRowMaskedSwitchPoint pins where UnionRowMasked leaves the
// sparse path. A source word outside the mask breaks the mask's contract
// on purpose: the sparse path skips it and the dense path reads it, which
// shows which one ran. With a valid mask both agree with the plain loop.
func TestUnionRowMaskedSwitchPoint(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, wpr := range []int{8, 16, 24, 40, 256} {
		limit := sparseEighths * wpr / 8 // most marked words on the sparse path
		for _, marked := range []int{limit, limit + 1} {
			width := wpr*64 - 3
			src := NewMatrix(1, width)
			mask := NewMatrix(1, wpr)
			for _, k := range r.Perm(wpr)[:marked] {
				src.words[k] = r.Uint64() | 1
				mask.Row(0).Add(k)
			}
			src.Row(0).trimTail()
			dst := NewMatrix(1, width)
			randomRow(r, dst, 0, 0.5)
			want := dst.Row(0).Clone()
			wantAdded := plainUnion(want.words, src.words)
			if added := dst.UnionRowMasked(0, src, 0, mask); added != wantAdded || !dst.Row(0).Equal(want) {
				t.Fatalf("wpr %d marked %d: added %d, want %d", wpr, marked, added, wantAdded)
			}

			// The unmasked word: find a word the mask leaves clear.
			hidden := -1
			for k := 0; k < wpr-1; k++ {
				if !mask.Row(0).Contains(k) {
					hidden = k
					break
				}
			}
			if hidden < 0 {
				continue
			}
			src.words[hidden] = 1
			dst.words[hidden] = 0
			dst.UnionRowMasked(0, src, 0, mask)
			sparse := dst.words[hidden] == 0
			if wantSparse := marked <= limit; sparse != wantSparse {
				t.Errorf("wpr %d marked %d: sparse path = %v, want %v", wpr, marked, sparse, wantSparse)
			}
		}
	}
}

func TestUnionRowMaskedWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on a mask of the wrong width")
		}
	}()
	m := NewMatrix(1, 200)
	m.UnionRowMasked(0, m, 0, NewMatrix(1, 3))
}
