package adversary

// Definition 1 (set-consensus power) and agreement functions.

import (
	"math"
	"math/bits"

	"repro/internal/procs"
)

// SetconOf computes setcon of an arbitrary collection of live sets
// (Definition 1):
//
//	setcon(A) = 0                                          if A = ∅
//	setcon(A) = max_{S∈A} (min_{a∈S} setcon(A|_{S\{a}})+1) otherwise
//
// where A|P keeps the live sets included in P. All recursive calls are
// restrictions of the original collection, so results are memoized per
// restriction set.
func SetconOf(live []procs.Set) int {
	memo := make(map[procs.Set]int)
	var rec func(p procs.Set) int
	rec = func(p procs.Set) int {
		if v, ok := memo[p]; ok {
			return v
		}
		best := 0
		for _, s := range live {
			if !s.SubsetOf(p) {
				continue
			}
			// min_{a∈S} setcon(A|S\{a}) + 1
			inner := -1
			s.ForEach(func(a procs.ID) {
				v := rec(s.Remove(a)) + 1
				if inner < 0 || v < inner {
					inner = v
				}
			})
			if inner > best {
				best = inner
			}
		}
		memo[p] = best
		return best
	}
	var full procs.Set
	for _, s := range live {
		full = full.Union(s)
	}
	return rec(full)
}

// Setcon returns the set-consensus power of the adversary: the smallest
// k such that k-set consensus is solvable in the A-model.
func (a *Adversary) Setcon() int {
	return int(a.alpha[len(a.alpha)-1] &^ liveBit)
}

// Alpha evaluates the agreement function of the adversary at P:
// α(P) = setcon(A|P), read from the table New filled. Processes outside
// Π are ignored, since no live set contains them.
func (a *Adversary) Alpha(p procs.Set) int {
	return int(a.alpha[p&procs.FullSet(a.n)] &^ liveBit)
}

// fillAlpha completes the agreement-function table whose live sets New
// has flagged. Definition 1 restricted to P maximises over the live sets
// S ⊆ P; those below P are covered by some P∖x, so
//
//	α(∅) = 0
//	α(P) = max( max_{x∈P} α(P∖x), [P ∈ A]·(1 + min_{x∈P} α(P∖x)) )
//
// and increasing mask order computes every P∖x before P.
func fillAlpha(alpha []int8) {
	for p := 1; p < len(alpha); p++ {
		hi, lo := 0, math.MaxInt
		for rest := p; rest != 0; rest &= rest - 1 {
			v := int(alpha[p^(rest&-rest)] &^ liveBit)
			hi, lo = max(hi, v), min(lo, v)
		}
		live := int(alpha[p] / liveBit) // 1 for a live set, else 0
		alpha[p] |= int8(max(hi, live*(lo+1)))
	}
}

// AgreementFunction materializes α over every subset of Π.
func (a *Adversary) AgreementFunction() map[procs.Set]int {
	out := make(map[procs.Set]int, 1<<uint(a.n))
	procs.ForEachSubset(procs.FullSet(a.n), func(p procs.Set) bool {
		out[p] = a.Alpha(p)
		return true
	})
	return out
}

// ValidateAgreementLaws checks the two structural laws of agreement
// functions stated in Section 3 — monotonicity (P ⊆ P' ⇒ α(P) ≤ α(P'))
// and bounded growth (α(P') ≤ α(P) + |P'\P|) — plus, for fair
// adversaries, the regularity law α(P) ≥ α(P\Q) ≥ α(P) − |Q| used by
// Lemma 3. Returns the first violated pair, or ok=true.
func (a *Adversary) ValidateAgreementLaws() (p, q procs.Set, ok bool) {
	full := procs.FullSet(a.n)
	subsets := procs.Subsets(full)
	for _, pp := range subsets {
		for _, qq := range subsets {
			if !pp.SubsetOf(qq) {
				continue
			}
			ap, aq := a.Alpha(pp), a.Alpha(qq)
			if ap > aq {
				return pp, qq, false
			}
			if aq > ap+qq.Diff(pp).Size() {
				return pp, qq, false
			}
		}
	}
	return 0, 0, true
}

// IsFair implements Definition 2: A is fair iff for all Q ⊆ P ⊆ Π,
// setcon(A|P,Q) = min(|Q|, setcon(A|P)).
func (a *Adversary) IsFair() bool {
	_, _, fair := a.FairnessWitness()
	return fair
}

// FairnessWitness returns a violating pair (P, Q) when the adversary is
// unfair, or fair=true. The witness is the first violation with P in
// increasing mask order and, within P, Q in increasing mask order.
//
// f(P, Q) = setcon(A|P,Q) obeys the recursion of fillAlpha, except that
// a live P counts only when it touches Q ⊆ P, that is when Q ≠ ∅:
//
//	f(P, Q) = max( max_{x∈P} f(P∖x, Q∖x),
//	               [P ∈ A ∧ Q ≠ ∅]·(1 + min_{x∈P} f(P∖x, Q∖x)) )
//
// That same pass stores each f(P, Q) in a dense table at the base-3
// index ternary(P) + ternary(Q): digit i is 0 for i ∉ P, 1 for
// i ∈ P∖Q and 2 for i ∈ Q. Dropping x from both sets lowers the index
// by 3^x, or by 2·3^x when x ∈ Q.
func (a *Adversary) FairnessWitness() (p, q procs.Set, fair bool) {
	var small [729]int8 // 3^6: every n ≤ 6 without a heap allocation
	f := small[:]
	if size := pow3[a.n]; size > len(small) {
		f = make([]int8, size)
	}
	// f(P, ∅) = 0 = min(0, α(P)), so the zeroed table already holds
	// the Q = ∅ entries and only Q ≠ ∅ is visited.
	for pm := 1; pm < len(a.alpha); pm++ {
		p = procs.Set(pm)
		alphaP := int(a.alpha[pm] &^ liveBit)
		live := int(a.alpha[pm] / liveBit) // 1 when P ∈ A, else 0
		tp := ternary(p)
		for q = p & -p; ; q = (q - p) & p {
			i := tp + ternary(q)
			hi, lo := 0, math.MaxInt
			for rest := p; rest != 0; rest &= rest - 1 {
				x := bits.TrailingZeros32(uint32(rest))
				v := int(f[i-pow3[x]<<(q>>x&1)])
				hi, lo = max(hi, v), min(lo, v)
			}
			hi = max(hi, live*(lo+1))
			f[i] = int8(hi)
			if hi != min(q.Size(), alphaP) {
				return p, q, false
			}
			if q == p {
				break
			}
		}
	}
	return 0, 0, true
}

// pow3[i] is 3^i, for every process index and for the table size 3^n.
var pow3 = func() (t [procs.MaxProcs + 1]int) {
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = 3 * t[i-1]
	}
	return t
}()

// ternaryByte[b] is Σ_{i∈b} 3^i for the eight processes of one byte.
var ternaryByte = func() (t [256]int) {
	for b := 1; b < len(t); b++ {
		low := bits.TrailingZeros8(uint8(b))
		t[b] = t[b&(b-1)] + pow3[low]
	}
	return t
}()

// ternary returns Σ_{i∈s} 3^i, the base-3 index of s with every digit 1.
func ternary(s procs.Set) int {
	t := ternaryByte[s&0xff]
	for shift := 8; s>>shift != 0; shift += 8 {
		t += pow3[shift] * ternaryByte[s>>shift&0xff]
	}
	return t
}

// EnumerateAdversaries calls f for every adversary over n processes
// (every subset of the non-empty subsets of Π, including the empty
// adversary). Stops early if f returns false. The count is
// 2^(2^n - 1): 128 for n = 3 — the Figure 2 census domain.
func EnumerateAdversaries(n int, f func(*Adversary) bool) {
	all := procs.NonemptySubsets(procs.FullSet(n))
	total := CensusSize(n)
	for idx := uint64(0); idx < total; idx++ {
		if !f(adversaryAt(n, all, idx)) {
			return
		}
	}
}

// CensusSize returns the number of adversaries EnumerateAdversaries
// visits for an n-process system: 2^(2^n − 1). Valid for n ≤ 6 (the
// count overflows uint64 beyond that — far past any enumerable census).
func CensusSize(n int) uint64 {
	if n < 1 || n > 6 {
		panic("adversary: CensusSize out of range")
	}
	return uint64(1) << uint((1<<uint(n))-1)
}

// EnumerationDomain returns the candidate live sets of the n-process
// enumeration in the fixed order AdversaryAt indexes by. Sweeps over
// many indices should compute it once and use AdversaryAtIn.
func EnumerationDomain(n int) []procs.Set {
	return procs.NonemptySubsets(procs.FullSet(n))
}

// AdversaryAt returns the idx-th adversary of the EnumerateAdversaries
// order: bit i of idx selects the i-th non-empty subset of Π (in the
// procs.NonemptySubsets order) as a live set. This random-access form is
// what lets the census engine partition the enumeration space into
// deterministic shards.
func AdversaryAt(n int, idx uint64) *Adversary {
	return adversaryAt(n, EnumerationDomain(n), idx)
}

// AdversaryAtIn is AdversaryAt over a precomputed EnumerationDomain(n)
// — the hot-loop form that skips re-deriving the domain per index.
func AdversaryAtIn(n int, domain []procs.Set, idx uint64) *Adversary {
	return adversaryAt(n, domain, idx)
}

func adversaryAt(n int, all []procs.Set, idx uint64) *Adversary {
	live := make([]procs.Set, 0, len(all))
	for i := 0; i < len(all); i++ {
		if idx&(1<<uint(i)) != 0 {
			live = append(live, all[i])
		}
	}
	adv, err := New(n, live...)
	if err != nil {
		panic("adversary: enumeration produced invalid live sets") // unreachable
	}
	return adv
}
