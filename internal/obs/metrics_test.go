package obs

// Exposition edge cases for the metric primitives: label escaping,
// histogram bucket cumulativity and sums, and concurrent counter-vec
// label materialization (exercised under -race by the race CI job).

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecLabelEscaping(t *testing.T) {
	c := NewCounterVec("esc_total", "Escaping probe.", "who")
	c.With(`plain`).Add(1)
	c.With(`has"quote`).Add(2)
	c.With(`back\slash`).Add(3)
	c.With("new\nline").Add(4)
	var buf bytes.Buffer
	c.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`esc_total{who="plain"} 1`,
		`esc_total{who="has\"quote"} 2`,
		`esc_total{who="back\\slash"} 3`,
		`esc_total{who="new\nline"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing escaped row %q in:\n%s", want, out)
		}
	}
	// Every sample row must stay one physical line — a raw newline in a
	// label value would corrupt the whole scrape.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !regexp.MustCompile(`^esc_total\{who=".*"\} \d+$`).MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestCounterVecMultiLabelRows(t *testing.T) {
	c := NewCounterVec("multi_total", "Two labels.", "path", "code")
	c.With("/v1/classify", "200").Add(5)
	c.With("/v1/classify", "429").Add(1)
	var buf bytes.Buffer
	c.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, `multi_total{path="/v1/classify",code="200"} 5`) ||
		!strings.Contains(out, `multi_total{path="/v1/classify",code="429"} 1`) {
		t.Fatalf("bad multi-label rows:\n%s", out)
	}
	if strings.Count(out, "# HELP") != 1 || strings.Count(out, "# TYPE") != 1 {
		t.Fatalf("headers duplicated:\n%s", out)
	}
}

func TestHistogramBucketCumulativity(t *testing.T) {
	h := NewHistogram("lat_seconds", "Cumulativity probe.", []float64{0.01, 0.1, 1})
	samples := []float64{0.005, 0.02, 0.05, 0.5, 2, 7} // 1 / 2 / 1 under each bound, 2 overflow
	var sum float64
	for _, v := range samples {
		h.Observe(v)
		sum += v
	}
	var buf bytes.Buffer
	h.WritePrometheus(&buf)
	out := buf.String()

	bucketRe := regexp.MustCompile(`lat_seconds_bucket\{le="([^"]+)"\} (\d+)`)
	var counts []uint64
	var bounds []string
	for _, m := range bucketRe.FindAllStringSubmatch(out, -1) {
		n, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, m[1])
		counts = append(counts, n)
	}
	if len(counts) != 4 || bounds[3] != "+Inf" {
		t.Fatalf("expected 3 bounds plus +Inf, got %v", bounds)
	}
	// Exact cumulative counts for the observation set.
	for i, want := range []uint64{1, 3, 4, 6} {
		if counts[i] != want {
			t.Errorf("bucket le=%s = %d, want %d\n%s", bounds[i], counts[i], want, out)
		}
	}
	// Cumulativity invariants: non-decreasing, +Inf == _count.
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("buckets not cumulative: %v", counts)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("lat_seconds_count %d\n", len(samples))) {
		t.Fatalf("_count != observations:\n%s", out)
	}
	sumRe := regexp.MustCompile(`lat_seconds_sum ([0-9.]+)`)
	m := sumRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no _sum in:\n%s", out)
	}
	got, _ := strconv.ParseFloat(m[1], 64)
	if math.Abs(got-sum) > 1e-6 {
		t.Fatalf("_sum = %v, want %v", got, sum)
	}
}

func TestHistogramSum(t *testing.T) {
	h := NewHistogram("x_seconds", "help", DefaultLatencyBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(0.01)
	}
	var buf bytes.Buffer
	h.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), fmt.Sprintf("x_seconds_sum %s\n", FormatFloat(1.0))) {
		t.Fatalf("sum drifted:\n%s", buf.String())
	}
}

func TestHistogramEmptyExposition(t *testing.T) {
	h := NewHistogram("idle_seconds", "Never observed.", DefaultLatencyBuckets)
	var buf bytes.Buffer
	h.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, `idle_seconds_bucket{le="+Inf"} 0`) ||
		!strings.Contains(out, "idle_seconds_count 0") ||
		!strings.Contains(out, "idle_seconds_sum 0") {
		t.Fatalf("empty histogram malformed:\n%s", out)
	}
}

func TestCounterVecConcurrentRegistration(t *testing.T) {
	// Many goroutines materializing overlapping label sets while a
	// scraper writes and sums: the total across rows, and Total, must
	// equal the adds, and -race must stay quiet.
	c := NewCounterVec("conc_total", "Concurrency probe.", "worker")
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.With(fmt.Sprintf("w%d", (g+i)%7)).Add(1)
				if i%50 == 0 {
					var buf bytes.Buffer
					c.WritePrometheus(&buf) // concurrent scrape
					_ = c.Total()
				}
			}
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	c.WritePrometheus(&buf)
	rowRe := regexp.MustCompile(`conc_total\{worker="w\d"\} (\d+)`)
	var total uint64
	for _, m := range rowRe.FindAllStringSubmatch(buf.String(), -1) {
		n, _ := strconv.ParseUint(m[1], 10, 64)
		total += n
	}
	if total != goroutines*perG {
		t.Fatalf("total = %d, want %d\n%s", total, goroutines*perG, buf.String())
	}
	if got := c.Total(); got != total {
		t.Fatalf("Total() = %d, rows sum to %d", got, total)
	}
}
