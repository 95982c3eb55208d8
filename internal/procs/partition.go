package procs

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// OrderedPartition is an ordered partition of a ground set into non-empty
// blocks. It is the combinatorial form of a one-round immediate-snapshot
// schedule: the processes of block i take their WriteSnapshot "at the same
// time", after all blocks j < i. The view of a process is the union of its
// own block and all earlier blocks (containment + immediacy of IS).
type OrderedPartition []Set

// Validation errors for ordered partitions.
var (
	ErrEmptyBlock  = errors.New("ordered partition has an empty block")
	ErrOverlap     = errors.New("ordered partition blocks overlap")
	ErrWrongGround = errors.New("ordered partition does not cover the ground set")
)

// Validate checks that op is an ordered partition of ground.
func (op OrderedPartition) Validate(ground Set) error {
	var seen Set
	for _, b := range op {
		if b.IsEmpty() {
			return ErrEmptyBlock
		}
		if seen.Intersects(b) {
			return ErrOverlap
		}
		seen = seen.Union(b)
	}
	if seen != ground {
		return fmt.Errorf("%w: covered %v, want %v", ErrWrongGround, seen, ground)
	}
	return nil
}

// Ground returns the union of all blocks.
func (op OrderedPartition) Ground() Set {
	var g Set
	for _, b := range op {
		g = g.Union(b)
	}
	return g
}

// BlockOf returns the index of the block containing p, or -1 if absent.
func (op OrderedPartition) BlockOf(p ID) int {
	for i, b := range op {
		if b.Contains(p) {
			return i
		}
	}
	return -1
}

// ViewOf returns the IS view of process p under this schedule: the union
// of p's block with all earlier blocks. ok is false if p is not in the
// partition.
func (op OrderedPartition) ViewOf(p ID) (view Set, ok bool) {
	var acc Set
	for _, b := range op {
		acc = acc.Union(b)
		if b.Contains(p) {
			return acc, true
		}
	}
	return 0, false
}

// Views returns the map of every participating process to its IS view.
func (op OrderedPartition) Views() map[ID]Set {
	out := make(map[ID]Set, op.Ground().Size())
	var acc Set
	for _, b := range op {
		acc = acc.Union(b)
		view := acc
		b.ForEach(func(p ID) { out[p] = view })
	}
	return out
}

// Prefix returns the union of the first k blocks.
func (op OrderedPartition) Prefix(k int) Set {
	var acc Set
	for i := 0; i < k && i < len(op); i++ {
		acc = acc.Union(op[i])
	}
	return acc
}

// Equal reports whether two ordered partitions are identical.
func (op OrderedPartition) Equal(other OrderedPartition) bool {
	if len(op) != len(other) {
		return false
	}
	for i := range op {
		if op[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of op.
func (op OrderedPartition) Clone() OrderedPartition {
	out := make(OrderedPartition, len(op))
	copy(out, op)
	return out
}

// String renders the partition in the paper's run notation,
// e.g. "{p2}, {p1}, {p3}".
func (op OrderedPartition) String() string {
	parts := make([]string, len(op))
	for i, b := range op {
		parts[i] = b.String()
	}
	return strings.Join(parts, ", ")
}

// Key returns a compact canonical key for use in maps.
func (op OrderedPartition) Key() string {
	var b strings.Builder
	b.Grow(len(op) * 5)
	for _, blk := range op {
		fmt.Fprintf(&b, "%x|", uint32(blk))
	}
	return b.String()
}

// PackedKeyMaxProcs bounds the ground sets PackedKey can encode: the
// nibble layout holds 16 processes in at most 15 blocks (1-based block
// indices must fit a nibble). Ordered-partition enumeration grows with
// the Fubini numbers (4683 at n=6, ~10^9 at n=12), so every enumerable
// instance fits with a wide margin.
const PackedKeyMaxProcs = 16

// PackedKey encodes the partition as a single comparable word: the
// nibble at position 4p holds the 1-based block index of process p, 0
// marking absence. Two partitions within the packed capacity (ground ⊆
// {p1..p16}, at most 15 blocks) are equal iff their packed keys are;
// the encoding is the membership hot-path key, replacing the fmt-built
// string form of Key. Panics beyond the capacity rather than colliding.
func (op OrderedPartition) PackedKey() uint64 {
	if len(op) >= PackedKeyMaxProcs {
		// Block index PackedKeyMaxProcs would not fit its nibble.
		panic("procs: PackedKey on partition with more than 15 blocks")
	}
	var key uint64
	for i, blk := range op {
		if uint32(blk)>>PackedKeyMaxProcs != 0 {
			panic("procs: PackedKey on partition beyond PackedKeyMaxProcs")
		}
		idx := uint64(i + 1)
		for b := blk; b != 0; {
			p := ID(bits.TrailingZeros32(uint32(b)))
			key |= idx << (4 * uint(p))
			b = b.Remove(p)
		}
	}
	return key
}

// EnumerateOrderedPartitions returns every ordered partition of ground,
// in a deterministic order. The count is the ordered Bell (Fubini) number
// of |ground|: 1, 3, 13, 75, 541, 4683, ... for |ground| = 1, 2, 3, ...
func EnumerateOrderedPartitions(ground Set) []OrderedPartition {
	if ground.IsEmpty() {
		return []OrderedPartition{{}}
	}
	var out []OrderedPartition
	// Choose the first block (any non-empty subset), recurse on the rest.
	for _, first := range NonemptySubsets(ground) {
		rest := ground.Diff(first)
		for _, tail := range EnumerateOrderedPartitions(rest) {
			op := make(OrderedPartition, 0, 1+len(tail))
			op = append(op, first)
			op = append(op, tail...)
			out = append(out, op)
		}
	}
	return out
}

// CountOrderedPartitions returns the ordered Bell number a(n): the number
// of ordered partitions of an n-element set. a(0) = 1.
func CountOrderedPartitions(n int) uint64 {
	// a(n) = sum_{k=1..n} C(n,k) a(n-k)
	a := make([]uint64, n+1)
	a[0] = 1
	for m := 1; m <= n; m++ {
		var sum uint64
		c := uint64(1) // C(m, k)
		for k := 1; k <= m; k++ {
			c = c * uint64(m-k+1) / uint64(k)
			sum += c * a[m-k]
		}
		a[m] = sum
	}
	return a[n]
}

// RandomOrderedPartition draws a uniformly-ish random ordered partition of
// ground using rng: it shuffles the members and inserts block boundaries
// with probability 1/2. (Not exactly uniform over ordered partitions; it
// is a schedule generator, not a statistical estimator, and it reaches
// every partition with positive probability.)
func RandomOrderedPartition(ground Set, rng *rand.Rand) OrderedPartition {
	members := ground.Members()
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	var out OrderedPartition
	cur := EmptySet
	for i, p := range members {
		cur = cur.Add(p)
		if i == len(members)-1 || rng.Intn(2) == 0 {
			out = append(out, cur)
			cur = EmptySet
		}
	}
	return out
}

// SingletonOrder returns the fully sequential ordered partition following
// the given order of processes, e.g. {p2}, {p1}, {p3}.
func SingletonOrder(order ...ID) OrderedPartition {
	out := make(OrderedPartition, len(order))
	for i, p := range order {
		out[i] = SetOf(p)
	}
	return out
}

// Synchronous returns the one-block partition {P}: the fully synchronous
// IS run of Figure 3b.
func Synchronous(ground Set) OrderedPartition {
	return OrderedPartition{ground}
}
