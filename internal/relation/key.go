package relation

import "errors"

// Join keys in this system are tuples of at most two categorical codes.
// They pack losslessly into a uint64, which keeps hash maps on the hot
// paths allocation-free. Feature-extraction queries over the evaluated
// schemas (Retailer, Favorita, Yelp, TPC-DS) join on one attribute
// (ids) or two (location+date composite keys), so two slots suffice;
// wider keys would be a schema error caught at plan time.

// PackKey1 packs a single categorical code into a join key.
func PackKey1(a int32) uint64 {
	return uint64(uint32(a))
}

// PackKey2 packs two categorical codes into a join key.
func PackKey2(a, b int32) uint64 {
	return uint64(uint32(a)) | uint64(uint32(b))<<32
}

// UnpackKey2 splits a two-code key back into its components.
func UnpackKey2(k uint64) (int32, int32) {
	return int32(uint32(k)), int32(uint32(k >> 32))
}

// KeyFunc returns a function computing the packed join key of a row from
// the given categorical column positions (1 or 2 of them). A zero-length
// cols slice yields the constant key 0, which models a cross-product edge.
func (r *Relation) KeyFunc(cols []int) func(row int) uint64 {
	switch len(cols) {
	case 0:
		return func(int) uint64 { return 0 }
	case 1:
		c := r.cols[cols[0]].C
		return func(row int) uint64 { return PackKey1(c[row]) }
	case 2:
		c0, c1 := r.cols[cols[0]].C, r.cols[cols[1]].C
		return func(row int) uint64 { return PackKey2(c0[row], c1[row]) }
	}
	panic("relation: join keys wider than 2 attributes are not supported")
}

// Key returns the packed join key of row `row` on the given columns —
// KeyFunc evaluated once, without building a closure, for per-row
// lookups on allocation-free paths.
func (r *Relation) Key(cols []int, row int) uint64 {
	switch len(cols) {
	case 0:
		return 0
	case 1:
		return PackKey1(r.cols[cols[0]].C[row])
	case 2:
		return PackKey2(r.cols[cols[0]].C[row], r.cols[cols[1]].C[row])
	}
	panic(errWideKey)
}

// errWideKey reports a join key over more than two attributes; a
// preallocated value keeps the panic path of Key off the heap.
var errWideKey = errors.New("relation: join keys wider than 2 attributes are not supported")

// Index is a hash index from packed join key to the row ids holding it.
// Each id is held at most once (a row has one key), and the index
// records every id's position in its bucket, so Remove is O(1) however
// many rows share the key.
type Index struct {
	cols []int
	m    map[uint64][]int32
	// pos[id] is id's position in its bucket while id is held; stale
	// entries for removed ids are never trusted without checking the
	// bucket.
	pos []int32
	// spare keeps a few emptied buckets for new keys to reuse, so churn
	// over distinct keys (a full-row locator) does not allocate.
	spare [][]int32
}

// maxSpareBuckets bounds Index.spare: enough for the handful of keys a
// delete and an insert drop and create, too few to hold memory.
const maxSpareBuckets = 16

// BuildIndex indexes the relation on the given categorical columns.
func (r *Relation) BuildIndex(cols []int) *Index {
	m := make(map[uint64][]int32, r.rows)
	pos := make([]int32, r.rows)
	for i := 0; i < r.rows; i++ {
		k := r.Key(cols, i)
		pos[i] = int32(len(m[k]))
		m[k] = append(m[k], int32(i))
	}
	return &Index{cols: cols, m: m, pos: pos}
}

// NewIndex returns an empty index on the given columns, to be maintained
// incrementally with Insert as rows are appended.
func NewIndex(cols []int) *Index {
	return &Index{cols: cols, m: make(map[uint64][]int32)}
}

// Insert records that row id carries key k. id must be non-negative and
// not already held by the index.
func (ix *Index) Insert(k uint64, id int32) {
	if int(id) >= len(ix.pos) {
		ix.pos = append(ix.pos, make([]int32, int(id)+1-len(ix.pos))...)
	}
	rows, ok := ix.m[k]
	if !ok {
		if n := len(ix.spare); n > 0 {
			rows = ix.spare[n-1]
			ix.spare = ix.spare[:n-1]
		}
	}
	ix.pos[id] = int32(len(rows))
	ix.m[k] = append(rows, id)
}

// Remove forgets that row id carries key k, reporting whether the entry
// existed. The bucket is compacted by swap-delete (order within a bucket
// is not meaningful to any caller) and dropped entirely when it empties,
// so a long-lived index under churn does not accumulate dead keys.
func (ix *Index) Remove(k uint64, id int32) bool {
	if id < 0 || int(id) >= len(ix.pos) {
		return false
	}
	rows := ix.m[k]
	i := ix.pos[id]
	if int(i) >= len(rows) || rows[i] != id {
		return false
	}
	last := len(rows) - 1
	moved := rows[last]
	rows[i] = moved
	ix.pos[moved] = i
	if last == 0 {
		delete(ix.m, k)
		if len(ix.spare) < maxSpareBuckets {
			ix.spare = append(ix.spare, rows[:0])
		}
	} else {
		ix.m[k] = rows[:last]
	}
	return true
}

// Rows returns the row ids with key k (nil if none). The slice must not
// be modified.
func (ix *Index) Rows(k uint64) []int32 { return ix.m[k] }

// Len returns the number of distinct keys.
func (ix *Index) Len() int { return len(ix.m) }

// Cols returns the indexed column positions.
func (ix *Index) Cols() []int { return ix.cols }
