package adversary

import "testing"

// TestFigure2Census is experiment E8: the Figure 2 class diagram as
// data. For every adversary over 3 processes: superset-closed and
// symmetric adversaries are fair (the paper's inclusions), and the
// class sizes match the measured census: 128 adversaries, 19
// superset-closed, 8 symmetric, 44 fair.
func TestFigure2Census(t *testing.T) {
	total, superset, symmetric, fair := 0, 0, 0, 0
	EnumerateAdversaries(3, func(a *Adversary) bool {
		total++
		ss := a.IsSupersetClosed()
		sym := a.IsSymmetric()
		fr := a.IsFair()
		if ss {
			superset++
		}
		if sym {
			symmetric++
		}
		if fr {
			fair++
		}
		if (ss || sym) && !fr {
			t.Errorf("inclusion violated: %v is superset/symmetric but unfair", a)
		}
		return true
	})
	if total != 128 || superset != 19 || symmetric != 8 || fair != 44 {
		t.Errorf("census = (total %d, superset %d, symmetric %d, fair %d), want (128, 19, 8, 44)",
			total, superset, symmetric, fair)
	}
}

// TestCensusSetconHistogram pins the distribution of agreement powers
// over the fair class at n=3.
func TestCensusSetconHistogram(t *testing.T) {
	hist := map[int]int{}
	EnumerateAdversaries(3, func(a *Adversary) bool {
		if a.IsFair() {
			hist[a.Setcon()]++
		}
		return true
	})
	want := map[int]int{0: 1, 1: 24, 2: 18, 3: 1}
	for k, w := range want {
		if hist[k] != w {
			t.Errorf("setcon=%d count = %d, want %d", k, hist[k], w)
		}
	}
}
