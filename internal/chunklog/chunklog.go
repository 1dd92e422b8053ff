// Package chunklog is an append-only log stored in fixed-size chunks.
//
// A slice-backed log doubles by copying: at every growth the whole log is
// live twice, and the old array stays garbage until the next GC. A Log
// instead fills ChunkSize-element chunks and links them from a spine of
// chunk pointers, so growth allocates one chunk and copies nothing, an
// element never moves once appended, and dropping a prefix hands whole
// chunks back to the garbage collector.
package chunklog

import "slices"

// ChunkSize is the number of elements per chunk. It is a power of two,
// so locating an element is a shift and a mask.
const ChunkSize = 1 << chunkShift

const chunkShift = 9

// spineInit is the spine's capacity when the first chunk is allocated:
// 64 chunk pointers, enough for 32,768 elements before the spine grows.
const spineInit = 64

// Log is an append-only sequence of T. The zero value is an empty log;
// the first chunk is allocated on the first Append. A Log is not safe for
// concurrent use: its owners serialize access with their own locks.
type Log[T any] struct {
	// chunks[0][head] is element 0; the live elements run contiguously
	// from there through the last chunk, which is the only one not full.
	chunks []*[ChunkSize]T
	head   int
	n      int
	// order and vals are SortStableFrom's buffers, kept between calls.
	order []*T
	vals  []T
}

// Len returns the number of elements.
func (l *Log[T]) Len() int { return l.n }

// At returns a pointer to element i, which stays valid until DropFront
// drops the element. It panics unless 0 <= i < Len().
func (l *Log[T]) At(i int) *T {
	if uint(i) >= uint(l.n) {
		panic("chunklog: index out of range")
	}
	i += l.head
	return &l.chunks[i>>chunkShift][i&(ChunkSize-1)]
}

// Append adds v at the end.
func (l *Log[T]) Append(v T) {
	i := l.head + l.n
	if i == len(l.chunks)<<chunkShift {
		if l.chunks == nil {
			l.chunks = make([]*[ChunkSize]T, 0, spineInit)
		}
		l.chunks = append(l.chunks, new([ChunkSize]T))
	}
	l.chunks[i>>chunkShift][i&(ChunkSize-1)] = v
	l.n++
}

// DropFront drops the first k elements (all of them when k >= Len()).
// Chunks left without a live element are released, and the dropped
// elements of the chunk that still holds live ones are zeroed, so the log
// keeps nothing they referenced reachable.
func (l *Log[T]) DropFront(k int) {
	if k <= 0 {
		return
	}
	if k >= l.n {
		clear(l.chunks)
		l.chunks = l.chunks[:0]
		l.head, l.n = 0, 0
		return
	}
	start := l.head
	l.head += k
	l.n -= k
	whole := l.head >> chunkShift
	l.head &= ChunkSize - 1
	if whole > 0 {
		// Shift the spine down rather than reslicing it, so its capacity
		// survives for later appends.
		kept := copy(l.chunks, l.chunks[whole:])
		clear(l.chunks[kept:])
		l.chunks = l.chunks[:kept]
		start = 0
	}
	clear(l.chunks[0][start:l.head])
}

// AppendTo appends elements [lo, hi) to dst, oldest first, and returns
// the extended slice. It panics unless 0 <= lo <= hi <= Len().
func (l *Log[T]) AppendTo(dst []T, lo, hi int) []T {
	if lo < 0 || lo > hi || hi > l.n {
		panic("chunklog: range out of bounds")
	}
	dst = slices.Grow(dst, hi-lo)
	for i, end := lo+l.head, hi+l.head; i < end; {
		c := l.chunks[i>>chunkShift]
		off := i & (ChunkSize - 1)
		m := min(ChunkSize-off, end-i)
		dst = append(dst, c[off:off+m]...)
		i += m
	}
	return dst
}

// SortStableFrom stably sorts elements [from, Len()) by cmp. It sorts
// pointers and then writes the values back in their new order, so a swap
// moves a pointer rather than a T, through buffers the log keeps for the
// next call. It panics unless 0 <= from <= Len().
func (l *Log[T]) SortStableFrom(from int, cmp func(a, b *T) int) {
	if from < 0 || from > l.n {
		panic("chunklog: sort start out of range")
	}
	if l.n-from < 2 {
		return
	}
	order := l.order[:0]
	for i := from; i < l.n; i++ {
		order = append(order, l.At(i))
	}
	slices.SortStableFunc(order, cmp)
	vals := l.vals[:0]
	for _, p := range order {
		vals = append(vals, *p)
	}
	for i := range vals {
		*l.At(from + i) = vals[i]
	}
	// Keep both buffers' capacity, but nothing they point at.
	clear(order)
	clear(vals)
	l.order, l.vals = order[:0], vals[:0]
}
