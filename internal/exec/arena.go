package exec

import (
	"unsafe"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// This file holds the storage of every operator that keeps rows past its
// child's next Next call: hash-join build sides, aggregation groups,
// DISTINCT, sorts, materialization and Collect. Child rows may alias
// pinned pages and reusable deform buffers, so they must be copied, and
// copying each row into allocations of its own would leave join-heavy
// queries bound by the allocator and the collector. A rowArena copies
// rows into a few large chunks instead, and a hashIndex chains rows by
// hash without a slice per bucket.

// chunkBytes caps the size of one arena chunk. Chunks start at the size
// of the first take and double up to the cap, so n elements cost
// O(log n + n/cap) allocations and a small buffer stays small.
const chunkBytes = 256 << 10

// chunks hands out sub-slices of large backing arrays. A returned slice
// is never handed out again, and later takes never move it. The zero
// value is ready to use.
type chunks[T any] struct {
	cur []T // the chunk being filled; its length is the used prefix
}

// take returns n fresh elements.
func (c *chunks[T]) take(n int) []T {
	used := len(c.cur)
	if used+n > cap(c.cur) {
		var zero T
		limit := chunkBytes / int(unsafe.Sizeof(zero))
		if n > limit/4 {
			return make([]T, n) // oversized: its own allocation, keep the chunk
		}
		// The first chunk fits the first take exactly, so a one-row
		// result costs what a single-row copy does.
		c.cur = make([]T, 0, min(max(2*cap(c.cur), n), limit))
		used = 0
	}
	c.cur = c.cur[:used+n]
	return c.cur[used : used+n : used+n]
}

// rowArena deep-copies rows into chunked storage: datums into datum
// chunks and byte payloads into byte chunks, so a copy costs no
// allocation of its own. rows holds the copies in the order they were
// added. A copy stays valid for as long as it is referenced, whatever
// the source's buffers do afterwards; an owner releases the whole arena
// by dropping it (HashJoin, Sort and aggregation do so on Close, so a
// cached plan holds no buffered rows).
type rowArena struct {
	rows   []expr.Row
	datums chunks[types.Datum]
	bytes  chunks[byte]
}

// add appends a deep copy of row to rows and returns the copy.
func (a *rowArena) add(row expr.Row) expr.Row {
	out := a.copyRow(row)
	a.rows = append(a.rows, out)
	return out
}

// copyRow returns a deep copy of row without listing it in rows. The
// row's payloads are taken as one piece, so a one-row arena costs one
// datum and one byte allocation; CloneRow is exactly that.
func (a *rowArena) copyRow(row expr.Row) expr.Row {
	if len(row) == 0 {
		return expr.Row{}
	}
	out := expr.Row(a.datums.take(len(row)))
	copy(out, row)
	total := 0
	for _, d := range row {
		total += len(d.B)
	}
	if total == 0 {
		return out
	}
	buf := a.bytes.take(total)
	for i := range out {
		if b := out[i].B; len(b) > 0 {
			n := copy(buf, b)
			out[i].B = buf[:n:n]
			buf = buf[n:]
		}
	}
	return out
}

// reuse forgets every copy and refills the current chunks from their
// start. Only an owner whose earlier copies are all dead may call it.
func (a *rowArena) reuse() {
	a.rows = a.rows[:0]
	a.datums.cur = a.datums.cur[:0]
	a.bytes.cur = a.bytes.cur[:0]
}

// hashIndex maps 64-bit hashes to dense row ids: bucket heads and tails
// in a map, and the rest of each bucket as an int32 chain over the ids.
// Ids are assigned in insertion order and a bucket chains its ids in
// that order, so a probe meets its candidates in build order. Owners
// store row id i at position i of their own row list.
type hashIndex struct {
	buckets map[uint64]hashBucket
	next    []int32 // next[id] is the following id in id's bucket, or -1
}

type hashBucket struct{ head, tail int32 }

// add indexes the next id under hash h and returns the id.
func (x *hashIndex) add(h uint64) int32 {
	id := int32(len(x.next))
	x.next = append(x.next, -1)
	if x.buckets == nil {
		x.buckets = make(map[uint64]hashBucket)
	}
	if b, ok := x.buckets[h]; ok {
		x.next[b.tail] = id
		x.buckets[h] = hashBucket{head: b.head, tail: id}
	} else {
		x.buckets[h] = hashBucket{head: id, tail: id}
	}
	return id
}

// first returns the first id indexed under h, or -1; x.next continues
// the walk.
func (x *hashIndex) first(h uint64) int32 {
	if b, ok := x.buckets[h]; ok {
		return b.head
	}
	return -1
}

// hashRow is the FNV-style combination of the datum hashes of row's
// columns at keys, or of every column when keys is nil.
func hashRow(row expr.Row, keys []int) uint64 {
	h := uint64(14695981039346656037)
	if keys == nil {
		for _, d := range row {
			h = (h ^ d.Hash()) * 1099511628211
		}
		return h
	}
	for _, k := range keys {
		h = (h ^ row[k].Hash()) * 1099511628211
	}
	return h
}
