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

// View is a read-only window of a Log taken by Window. It refers to the
// log's chunks, not its spine, so Appends to the log, which write only past
// the window, leave it unchanged, and it copies none of the elements it
// covers. A DropFront that drops part of the window may zero that part,
// and a write through At into it rewrites it.
type View[T any] struct {
	head []T             // the window's part of its first chunk
	mid  []*[ChunkSize]T // chunks wholly inside the window after the first
	tail []T             // the window's part of its last chunk, if not the first
}

// Window returns a view of elements [lo, hi). A window within one or two
// chunks allocates nothing; a longer one copies its inner chunk pointers.
// It panics unless 0 <= lo <= hi <= Len().
func (l *Log[T]) Window(lo, hi int) View[T] {
	if lo < 0 || lo > hi || hi > l.n {
		panic("chunklog: range out of bounds")
	}
	if lo == hi {
		return View[T]{}
	}
	lo, hi = lo+l.head, hi+l.head
	first, last := lo>>chunkShift, (hi-1)>>chunkShift
	if first == last {
		return View[T]{head: l.chunks[first][lo&(ChunkSize-1) : (hi-1)&(ChunkSize-1)+1]}
	}
	v := View[T]{
		head: l.chunks[first][lo&(ChunkSize-1):],
		tail: l.chunks[last][:(hi-1)&(ChunkSize-1)+1],
	}
	if last-first > 1 {
		v.mid = slices.Clone(l.chunks[first+1 : last])
	}
	return v
}

// Len returns the number of elements in the window.
func (v View[T]) Len() int { return len(v.head) + len(v.mid)*ChunkSize + len(v.tail) }

// Parts returns how many contiguous parts the window is stored in: one per
// chunk it touches.
func (v View[T]) Parts() int {
	n := len(v.mid)
	if len(v.head) > 0 {
		n++
	}
	if len(v.tail) > 0 {
		n++
	}
	return n
}

// Part returns part k of the window, 0 <= k < Parts(), oldest first. The
// slice aliases the log's storage: callers read it and keep nothing.
func (v View[T]) Part(k int) []T {
	switch {
	case k == 0:
		return v.head
	case k <= len(v.mid):
		return v.mid[k-1][:]
	default:
		return v.tail
	}
}
