package chunklog

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

func filled(n int) *Log[int] {
	var l Log[int]
	for i := 0; i < n; i++ {
		l.Append(i)
	}
	return &l
}

func TestAppendAndIndexAcrossChunks(t *testing.T) {
	var l Log[int]
	if l.Len() != 0 || l.chunks != nil {
		t.Fatal("zero Log is not empty or already holds storage")
	}
	l.Append(0)
	if len(l.chunks) != 1 {
		t.Fatalf("first append left %d chunks, want 1", len(l.chunks))
	}
	first := l.At(0)
	n := 3*ChunkSize + 17
	for i := 1; i < n; i++ {
		l.Append(i)
	}
	if l.Len() != n || len(l.chunks) != 4 {
		t.Fatalf("Len = %d over %d chunks, want %d over 4", l.Len(), len(l.chunks), n)
	}
	for i := 0; i < n; i++ {
		if got := *l.At(i); got != i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	if first != l.At(0) || *first != 0 {
		t.Fatal("element 0 moved while the log grew")
	}
	for _, i := range []int{-1, n} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			l.At(i)
		}()
	}
}

func TestDropFrontReleasesChunks(t *testing.T) {
	n := 4*ChunkSize + 100
	var l Log[*int]
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
		l.Append(&vals[i])
	}
	spine := cap(l.chunks)
	kept := l.At(ChunkSize + 20)

	// Inside the first chunk: nothing is released, the dropped slots are
	// zeroed.
	l.DropFront(ChunkSize - 3)
	if len(l.chunks) != 5 || l.Len() != n-(ChunkSize-3) {
		t.Fatalf("after an in-chunk drop: %d chunks, Len %d", len(l.chunks), l.Len())
	}
	for i, p := range l.chunks[0][:ChunkSize-3] {
		if p != nil {
			t.Fatalf("dropped slot %d still holds a pointer", i)
		}
	}
	// Across a boundary: the first chunk is released and the spine keeps
	// its capacity.
	l.DropFront(23)
	if len(l.chunks) != 4 || cap(l.chunks) != spine || l.head != 20 {
		t.Fatalf("after a cross-chunk drop: %d chunks, spine cap %d (want %d), head %d", len(l.chunks), cap(l.chunks), spine, l.head)
	}
	if l.At(0) != kept || **l.At(0) != ChunkSize+20 {
		t.Fatal("a kept element moved or changed when its predecessors were dropped")
	}
	for _, p := range l.chunks[len(l.chunks):cap(l.chunks)] {
		if p != nil {
			t.Fatal("the spine still points at a released chunk")
		}
	}
	// Exactly to a boundary.
	l.DropFront(ChunkSize - 20)
	if len(l.chunks) != 3 || l.head != 0 || **l.At(0) != 2*ChunkSize {
		t.Fatalf("after a drop to a boundary: %d chunks, head %d, At(0) %d", len(l.chunks), l.head, **l.At(0))
	}
	for i := 0; i < l.Len(); i++ {
		if **l.At(i) != 2*ChunkSize+i {
			t.Fatalf("At(%d) = %d after drops", i, **l.At(i))
		}
	}
	l.DropFront(0)
	l.DropFront(-1)
	if l.Len() != n-2*ChunkSize {
		t.Fatalf("a non-positive drop changed Len to %d", l.Len())
	}
	// Everything: no chunk stays, and the log is usable again.
	l.DropFront(l.Len() + 1)
	if l.Len() != 0 || len(l.chunks) != 0 || l.chunks[:cap(l.chunks)][0] != nil {
		t.Fatalf("after dropping everything: Len %d, %d chunks", l.Len(), len(l.chunks))
	}
	l.Append(&vals[7])
	if l.Len() != 1 || **l.At(0) != 7 {
		t.Fatal("append after a full drop")
	}
}

func TestAppendToCopiesRanges(t *testing.T) {
	l := filled(3*ChunkSize + 5)
	l.DropFront(ChunkSize/2 + 1) // element 0 sits mid-chunk
	n := l.Len()
	want := make([]int, n)
	for i := range want {
		want[i] = ChunkSize/2 + 1 + i
	}
	for _, r := range [][2]int{
		{0, n}, {0, 0}, {n, n}, {3, 4},
		{ChunkSize/2 - 2, ChunkSize/2 + 2}, // straddles the first boundary
		{10, 2*ChunkSize + 30},             // spans whole chunks
		{n - 1, n},
	} {
		lo, hi := r[0], r[1]
		got := l.AppendTo([]int{-1}, lo, hi)
		if !slices.Equal(got, append([]int{-1}, want[lo:hi]...)) {
			t.Fatalf("AppendTo(%d, %d) = %v...", lo, hi, got[:min(len(got), 5)])
		}
		got[len(got)-1] = -7
		if hi > lo && *l.At(hi - 1) == -7 {
			t.Fatal("AppendTo returned the log's storage, not a copy")
		}
	}
	for _, r := range [][2]int{{-1, 2}, {3, 2}, {0, n + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendTo(%d, %d) did not panic", r[0], r[1])
				}
			}()
			l.AppendTo(nil, r[0], r[1])
		}()
	}
}

type keyed struct{ key, seq int }

// TestSortStableFromAcrossChunks sorts suffixes that start in one chunk
// and end in another, and requires exactly the order a stable sort of a
// flat copy gives.
func TestSortStableFromAcrossChunks(t *testing.T) {
	byKey := func(a, b *keyed) int { return cmp.Compare(a.key, b.key) }
	for _, tc := range []struct{ before, seg int }{
		{ChunkSize - 5, 12},              // straddles one boundary
		{ChunkSize - 1, 2 * ChunkSize},   // spans a whole chunk
		{2 * ChunkSize, ChunkSize/2 + 1}, // starts on a boundary
		{7, 1},                           // too short to reorder
		{7, 0},
	} {
		t.Run(fmt.Sprintf("before=%d/seg=%d", tc.before, tc.seg), func(t *testing.T) {
			var l Log[keyed]
			var flat []keyed
			for i := 0; i < tc.before+tc.seg; i++ {
				k := keyed{key: (i * 7919) % 13, seq: i}
				l.Append(k)
				flat = append(flat, k)
			}
			for round := 0; round < 2; round++ { // the second reuses the kept buffers
				l.SortStableFrom(tc.before, byKey)
				slices.SortStableFunc(flat[tc.before:], func(a, b keyed) int { return byKey(&a, &b) })
				if got := l.AppendTo(nil, 0, l.Len()); !slices.Equal(got, flat) {
					t.Fatalf("round %d: log order differs from a stable sort of a flat copy", round)
				}
				l.Append(keyed{key: -round, seq: -1})
				flat = append(flat, keyed{key: -round, seq: -1})
			}
		})
	}
}

// TestAppendAllocs pins the allocation bound: n appends allocate one
// object per chunk plus one spine. Past spineInit chunks the spine grows
// geometrically, one more pointer array each time it fills.
func TestAppendAllocs(t *testing.T) {
	for _, n := range []int{1, ChunkSize, ChunkSize + 1, 5000, spineInit * ChunkSize} {
		got := testing.AllocsPerRun(5, func() {
			var l Log[int]
			for i := 0; i < n; i++ {
				l.Append(i)
			}
		})
		if limit := float64((n+ChunkSize-1)/ChunkSize + 1); got > limit {
			t.Errorf("%d appends: %.0f allocations, want at most %.0f", n, got, limit)
		}
	}
}
