package htmldom

// Arena owns the nodes and attributes of every document parsed into it.
// Trees parsed by a.Parse stay valid until a.Reset; Reset keeps the
// backing chunks, so a warmed arena parses a page without allocating for
// nodes or attributes. Strings in the tree (tags, text, attribute values)
// are not arena memory: a string copied out of a node stays valid after
// Reset. The zero value is ready to use. An Arena is not safe for
// concurrent use.
type Arena struct {
	nodes chunks[Node]
	attrs chunks[Attr]
	stack []openElement // the parser's open-element stack, kept for reuse
}

// openElement is one entry of the parser's stack: an element still taking
// children, and its last child so far.
type openElement struct {
	node, last *Node
}

// Reset invalidates every node and attribute parsed into a and zeroes the
// used part of its chunks, so they pin no strings from earlier documents.
func (a *Arena) Reset() {
	a.nodes.reset()
	a.attrs.reset()
}

func (a *Arena) newNode(n Node) *Node {
	s := a.nodes.push(n, 0)
	return &s[0]
}

// chunkLen is the capacity of a chunk: 128 nodes is 12 KB, about two
// pages; 128 attributes is 4 KB.
const chunkLen = 128

// chunks hands out elements from fixed-capacity backing arrays, filled in
// order. An element never moves once handed out, because a full chunk is
// set aside rather than regrown; reset empties the chunks and keeps them
// for reuse.
type chunks[T any] struct {
	cur  []T   // the chunk being filled; len = elements in use
	full [][]T // chunks filled before cur since the last reset
	free [][]T // empty chunks kept by reset
}

// push appends v and returns the run of elements that ends with it: v plus
// the run elements pushed just before it. When v does not fit in the
// current chunk, the run moves to a new chunk with it, so the returned
// slice is always contiguous. Its capacity is clamped to its length, so an
// append on it cannot clobber a neighbour.
func (c *chunks[T]) push(v T, run int) []T {
	if len(c.cur) == cap(c.cur) {
		prev := c.cur[len(c.cur)-run:]
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		c.cur = append(c.take(run+1), prev...)
	}
	c.cur = append(c.cur, v)
	n := len(c.cur)
	return c.cur[n-run-1 : n : n]
}

// take returns an empty chunk with room for at least n elements.
func (c *chunks[T]) take(n int) []T {
	if k := len(c.free); k > 0 && cap(c.free[k-1]) >= n {
		ch := c.free[k-1]
		c.free = c.free[:k-1]
		return ch
	}
	return make([]T, 0, max(chunkLen, 2*n))
}

func (c *chunks[T]) reset() {
	if c.cur == nil {
		return
	}
	for _, ch := range c.full {
		clear(ch)
		c.free = append(c.free, ch[:0])
	}
	clear(c.cur)
	c.free = append(c.free, c.cur[:0])
	clear(c.full)
	c.full = c.full[:0]
	c.cur = nil
}
