// Package adversary implements Section 3 of the paper: adversaries as
// collections of live sets, the structural classes (superset-closed,
// symmetric), the set-consensus power setcon (Definition 1), agreement
// functions α (and their laws), fairness (Definition 2), and the
// α-model (Definition 3).
package adversary

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/procs"
)

// Construction errors.
var (
	ErrEmptyLiveSet = errors.New("adversary live set is empty")
	ErrOutOfSystem  = errors.New("live set mentions process outside the system")
	ErrBadSize      = errors.New("invalid system size")
)

// Adversary is a collection of live sets over an n-process system. An
// infinite run is A-compliant when its set of correct processes is a
// live set. The representation is canonical (sorted, deduplicated), so
// adversaries can be compared with Equal.
//
// Everything the classification reads is computed once by New, and no
// method writes to the value afterwards: an *Adversary is safe for
// concurrent use by any number of goroutines.
type Adversary struct {
	n    int
	live []procs.Set

	// alpha is the dense agreement-function table, indexed by subset
	// mask: alpha[P]&^liveBit is α(P) = setcon(A|P) for every P ⊆ Π,
	// and alpha[P]&liveBit is set exactly when P itself is a live set.
	alpha []int8
}

// liveBit flags live sets in the alpha table. α(P) ≤ |P| ≤ 32 occupies
// the six bits below it.
const liveBit = 1 << 6

// New builds an adversary from explicit live sets. It fills the
// agreement-function table over all 2^n subsets of Π, which costs
// O(n·2^n) time and 2^n bytes.
func New(n int, liveSets ...procs.Set) (*Adversary, error) {
	if n <= 0 || n > procs.MaxProcs {
		return nil, fmt.Errorf("%w: %d", ErrBadSize, n)
	}
	full := procs.FullSet(n)
	alpha := make([]int8, uint64(full)+1)
	live := make([]procs.Set, 0, len(liveSets))
	for _, s := range liveSets {
		if s.IsEmpty() {
			return nil, ErrEmptyLiveSet
		}
		if !s.SubsetOf(full) {
			return nil, fmt.Errorf("%w: %v with n=%d", ErrOutOfSystem, s, n)
		}
		if alpha[s] == 0 {
			alpha[s] = liveBit
			live = append(live, s)
		}
	}
	procs.SortSets(live)
	fillAlpha(alpha)
	return &Adversary{n: n, live: live, alpha: alpha}, nil
}

// MustNew is New for statically-known-correct inputs (tests, examples).
func MustNew(n int, liveSets ...procs.Set) *Adversary {
	a, err := New(n, liveSets...)
	if err != nil {
		panic(err)
	}
	return a
}

// WaitFree returns the wait-free adversary: every non-empty subset is a
// live set (any set of processes may crash).
func WaitFree(n int) *Adversary {
	return MustNew(n, procs.NonemptySubsets(procs.FullSet(n))...)
}

// TResilient returns A_{t-res}: all subsets of size ≥ n−t.
func TResilient(n, t int) *Adversary {
	var live []procs.Set
	for size := n - t; size <= n; size++ {
		live = append(live, procs.SubsetsOfSize(procs.FullSet(n), size)...)
	}
	return MustNew(n, live...)
}

// KObstructionFree returns the k-obstruction-free adversary: all
// non-empty subsets of size at most k.
func KObstructionFree(n, k int) *Adversary {
	var live []procs.Set
	for size := 1; size <= k && size <= n; size++ {
		live = append(live, procs.SubsetsOfSize(procs.FullSet(n), size)...)
	}
	return MustNew(n, live...)
}

// SymmetricFromSizes returns the symmetric adversary whose live sets are
// exactly the subsets with size in sizes.
func SymmetricFromSizes(n int, sizes ...int) *Adversary {
	var live []procs.Set
	for _, k := range sizes {
		live = append(live, procs.SubsetsOfSize(procs.FullSet(n), k)...)
	}
	return MustNew(n, live...)
}

// SupersetClosure returns the superset-closed adversary generated by the
// given live sets (the generators plus all their supersets), e.g. the
// Figure 5b adversary SupersetClosure(3, {p2}, {p1,p3}).
func SupersetClosure(n int, gens ...procs.Set) (*Adversary, error) {
	full := procs.FullSet(n)
	seen := make(map[procs.Set]bool)
	var live []procs.Set
	for _, g := range gens {
		if g.IsEmpty() {
			return nil, ErrEmptyLiveSet
		}
		if !g.SubsetOf(full) {
			return nil, fmt.Errorf("%w: %v with n=%d", ErrOutOfSystem, g, n)
		}
		rest := full.Diff(g)
		for _, extra := range procs.Subsets(rest) {
			s := g.Union(extra)
			if !seen[s] {
				seen[s] = true
				live = append(live, s)
			}
		}
	}
	return New(n, live...)
}

// N returns the system size.
func (a *Adversary) N() int { return a.n }

// LiveSets returns a copy of the canonical live-set list.
func (a *Adversary) LiveSets() []procs.Set {
	out := make([]procs.Set, len(a.live))
	copy(out, a.live)
	return out
}

// NumLiveSets returns |A|.
func (a *Adversary) NumLiveSets() int { return len(a.live) }

// Contains reports whether S is a live set of the adversary.
func (a *Adversary) Contains(s procs.Set) bool {
	return s.SubsetOf(procs.FullSet(a.n)) && a.alpha[s]&liveBit != 0
}

// Equal reports whether two adversaries have identical live sets.
func (a *Adversary) Equal(b *Adversary) bool {
	if a.n != b.n || len(a.live) != len(b.live) {
		return false
	}
	for i := range a.live {
		if a.live[i] != b.live[i] {
			return false
		}
	}
	return true
}

// Signature returns a deterministic identifier of the adversary: the
// system size plus the canonical live-set masks. Two adversaries have
// equal signatures iff they are Equal, so the signature is usable as a
// memoization key (e.g. for cached iterated subdivisions of R_A).
func (a *Adversary) Signature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adv:%d", a.n)
	for _, s := range a.live {
		fmt.Fprintf(&b, ";%x", uint32(s))
	}
	return b.String()
}

// String lists the live sets, e.g. "A{{p2},{p1,p3}}".
func (a *Adversary) String() string {
	size := len("A{}") + len(a.live)
	for _, s := range a.live {
		size += 2 + 4*s.Size() // "{}" plus "p", up to two digits and a comma per member
	}
	b := make([]byte, 0, size)
	b = append(b, "A{"...)
	for i, s := range a.live {
		if i > 0 {
			b = append(b, ',')
		}
		b = s.AppendTo(b)
	}
	return string(append(b, '}'))
}

// IsSupersetClosed reports whether every superset of a live set is
// live. Checking the one-process extensions suffices: every superset of
// S is reached from S by adding one process at a time.
func (a *Adversary) IsSupersetClosed() bool {
	full := procs.FullSet(a.n)
	for _, s := range a.live {
		for rest := full.Diff(s); rest != 0; rest &= rest - 1 {
			if !a.Contains(s | rest&-rest) {
				return false
			}
		}
	}
	return true
}

// IsSymmetric reports whether membership depends only on live-set size:
// for each size k the adversary holds either no k-set or all C(n, k).
func (a *Adversary) IsSymmetric() bool {
	var count [procs.MaxProcs + 1]int
	for _, s := range a.live {
		count[s.Size()]++
	}
	binom := 1 // C(n, k)
	for k := 0; k <= a.n; k++ {
		if count[k] != 0 && count[k] != binom {
			return false
		}
		binom = binom * (a.n - k) / (k + 1)
	}
	return true
}

// Restrict returns A|P: the adversary of live sets included in P.
func (a *Adversary) Restrict(p procs.Set) *Adversary {
	var live []procs.Set
	for _, s := range a.live {
		if s.SubsetOf(p) {
			live = append(live, s)
		}
	}
	out, _ := New(a.n, live...) // inputs already validated
	return out
}

// RestrictTouching returns A|P,Q = {S ∈ A : S ⊆ P ∧ S ∩ Q ≠ ∅}.
func (a *Adversary) RestrictTouching(p, q procs.Set) []procs.Set {
	var live []procs.Set
	for _, s := range a.live {
		if s.SubsetOf(p) && s.Intersects(q) {
			live = append(live, s)
		}
	}
	return live
}

// CSize returns csize(A): the minimal hitting set size of the live sets.
// H hits every live set exactly when no live set lies inside Π∖H, that
// is when α(Π∖H) = 0, so csize is n minus the size of the largest P
// with α(P) = 0.
func (a *Adversary) CSize() int {
	largest := 0
	for p, v := range a.alpha {
		if v == 0 { // a live P has α(P) ≥ 1, so v carries no liveBit
			largest = max(largest, bits.OnesCount(uint(p)))
		}
	}
	return a.n - largest
}
