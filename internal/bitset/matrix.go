package bitset

import "math/bits"

// Matrix is a dense rows×width bit matrix backed by a single word slice.
// Row(i) returns a Set view sharing the matrix storage, so row unions are
// word-parallel with no per-row allocation. The gossiping simulators use one
// row per node (row v = the set of original messages known to node v).
type Matrix struct {
	words []uint64
	wpr   int // words per row
	rows  int
	width int
}

// NewMatrix allocates a rows×width all-zero bit matrix.
func NewMatrix(rows, width int) *Matrix {
	if rows < 0 || width < 0 {
		panic("bitset: negative matrix dimension")
	}
	wpr := wordsFor(width)
	return &Matrix{
		words: make([]uint64, rows*wpr),
		wpr:   wpr,
		rows:  rows,
		width: width,
	}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Width returns the bit width of each row.
func (m *Matrix) Width() int { return m.width }

// Row returns a Set view of row i. Mutating the view mutates the matrix.
func (m *Matrix) Row(i int) *Set {
	return &Set{words: m.words[i*m.wpr : (i+1)*m.wpr : (i+1)*m.wpr], n: m.width}
}

// RowInto repoints the preallocated view s at row i, avoiding allocation in
// hot loops. The view must not outlive the matrix.
func (m *Matrix) RowInto(s *Set, i int) {
	s.words = m.words[i*m.wpr : (i+1)*m.wpr : (i+1)*m.wpr]
	s.n = m.width
}

// CopyFrom overwrites m with o. Dimensions must match.
func (m *Matrix) CopyFrom(o *Matrix) {
	if m.rows != o.rows || m.width != o.width {
		panic("bitset: matrix dimension mismatch in CopyFrom")
	}
	copy(m.words, o.words)
}

// CopyRowsFrom copies rows [lo, hi) from o into m. Used to parallelize the
// per-round snapshot across worker goroutines.
func (m *Matrix) CopyRowsFrom(o *Matrix, lo, hi int) {
	if m.wpr != o.wpr {
		panic("bitset: matrix dimension mismatch in CopyRowsFrom")
	}
	copy(m.words[lo*m.wpr:hi*m.wpr], o.words[lo*o.wpr:hi*o.wpr])
}

// UnionRow ors src's row j into m's row i and returns the number of newly
// set bits. m and src may be the same matrix (i != j required in that case
// for a meaningful result, though i == j is harmless and returns 0).
func (m *Matrix) UnionRow(i int, src *Matrix, j int) int {
	return unionWords(m.words[i*m.wpr:(i+1)*m.wpr], src.words[j*src.wpr:(j+1)*src.wpr])
}

// sparseEighths is the densest source row, in eighths of its words
// non-zero, that UnionRowMasked still unions word by word through its
// mask. Above it the branch-free UnionRow over the whole row is faster.
const sparseEighths = 5

// UnionRowMasked is UnionRow for a source row whose non-zero words are
// known: row j of mask has one bit per word of src's row j and must have
// set at least the bits of that row's non-zero words. When the mask marks
// at most sparseEighths/8 of the row's words, only the marked words are
// read; otherwise it is UnionRow. Either way the result equals UnionRow's.
func (m *Matrix) UnionRowMasked(i int, src *Matrix, j int, mask *Matrix) int {
	if mask.width != src.wpr {
		panic("bitset: mask width does not match the row's words in UnionRowMasked")
	}
	mw := mask.words[j*mask.wpr : (j+1)*mask.wpr]
	marked := 0
	for _, w := range mw {
		marked += popcount(w)
	}
	if 8*marked > sparseEighths*src.wpr {
		return m.UnionRow(i, src, j)
	}
	dst := m.words[i*m.wpr : (i+1)*m.wpr]
	s := src.words[j*src.wpr : (j+1)*src.wpr]
	added := 0
	for mi, w := range mw {
		for w != 0 {
			k := mi*wordBits + bits.TrailingZeros64(w)
			w &= w - 1
			added += popcount(s[k] &^ dst[k])
			dst[k] |= s[k]
		}
	}
	return added
}

// UnionSet ors the standalone set s into row i and returns newly set bits.
func (m *Matrix) UnionSet(i int, s *Set) int {
	if s.n != m.width {
		panic("bitset: width mismatch in UnionSet")
	}
	return unionWords(m.words[i*m.wpr:(i+1)*m.wpr], s.words)
}

// Clear zeroes the whole matrix.
func (m *Matrix) Clear() {
	for i := range m.words {
		m.words[i] = 0
	}
}

// TotalCount returns the total number of set bits in the matrix.
func (m *Matrix) TotalCount() int64 {
	var c int64
	for _, w := range m.words {
		c += int64(popcount(w))
	}
	return c
}

func popcount(w uint64) int { return bits.OnesCount64(w) }
