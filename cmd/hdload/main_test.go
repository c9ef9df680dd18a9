package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := percentile(sorted, 0.50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(sorted, 0.99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := percentile(sorted[:1], 0.99); got != time.Millisecond {
		t.Errorf("single sample p99 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

func TestScrapeCounterSumsSeries(t *testing.T) {
	body := `# HELP hdserve_estimate_degraded_total estimates
# TYPE hdserve_estimate_degraded_total counter
hdserve_estimate_degraded_total{fallback="seed"} 40
hdserve_estimate_degraded_total{fallback="library"} 2
hdserve_estimate_degraded_totally_unrelated 999
hdserve_go_mallocs_total 12345
`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(body))
	}))
	defer srv.Close()
	got, err := scrapeCounter(srv.Client(), srv.URL, "hdserve_estimate_degraded_total")
	if err != nil || got != 42 {
		t.Fatalf("labeled sum = %v, %v (want 42)", got, err)
	}
	got, err = scrapeCounter(srv.Client(), srv.URL, "hdserve_go_mallocs_total")
	if err != nil || got != 12345 {
		t.Fatalf("unlabeled = %v, %v", got, err)
	}
	if _, err := scrapeCounter(srv.Client(), srv.URL, "no_such_metric"); err == nil {
		t.Fatal("absent metric must error")
	}
}

// TestRenderRequestShapes: every generated body is valid JSON in the
// server's request schema, names the model by its key triple alone, and
// respects the hd/stable_zeros range contracts.
func TestRenderRequestShapes(t *testing.T) {
	tgt := target{module: "csa-multiplier", width: 8, seed: 1, inputBits: 16}
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []string{"hd", "words", "enhanced"} {
		body := renderRequest(rng, tgt, shape, 12)
		var req struct {
			Model struct {
				Module   string `json:"module"`
				Width    int    `json:"width"`
				Seed     int64  `json:"seed"`
				Patterns int    `json:"patterns"`
			} `json:"model"`
			Hd          []int    `json:"hd"`
			StableZeros []int    `json:"stable_zeros"`
			Words       []uint64 `json:"words"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%s: %v: %s", shape, err, body)
		}
		if req.Model.Module != tgt.module || req.Model.Width != tgt.width || req.Model.Patterns != 0 {
			t.Fatalf("%s: model = %+v", shape, req.Model)
		}
		switch shape {
		case "hd":
			if len(req.Hd) != 12 || len(req.StableZeros) != 0 || len(req.Words) != 0 {
				t.Fatalf("hd body: %s", body)
			}
		case "words":
			if len(req.Words) != 13 || len(req.Hd) != 0 {
				t.Fatalf("words body: %s", body)
			}
			for _, w := range req.Words {
				if w >= 1<<8 {
					t.Fatalf("word %d over width %d", w, tgt.width)
				}
			}
		case "enhanced":
			if len(req.Hd) != 12 || len(req.StableZeros) != 12 {
				t.Fatalf("enhanced body: %s", body)
			}
			for i := range req.Hd {
				if req.Hd[i] < 0 || req.Hd[i] > tgt.inputBits ||
					req.StableZeros[i] < 0 || req.Hd[i]+req.StableZeros[i] > tgt.inputBits {
					t.Fatalf("range violation hd=%d sz=%d bits=%d",
						req.Hd[i], req.StableZeros[i], tgt.inputBits)
				}
			}
		}
	}
}

// TestRenderRequestDeterministic: the same generator seed produces the
// same byte stream — the property that makes baselines comparable.
func TestRenderRequestDeterministic(t *testing.T) {
	tgt := target{module: "ripple-adder", width: 4, seed: 3, inputBits: 8}
	a := renderRequest(rand.New(rand.NewSource(11)), tgt, "enhanced", 6)
	b := renderRequest(rand.New(rand.NewSource(11)), tgt, "enhanced", 6)
	if string(a) != string(b) {
		t.Fatalf("same seed, different bodies:\n%s\n%s", a, b)
	}
}

func TestParseModels(t *testing.T) {
	good := config{mix: "mixed", endpoint: "both", concurrency: 1, cycles: 1, streamBatch: 1, seed: 5}
	if err := good.parseModels("csa-multiplier:8, ripple-adder:16"); err != nil {
		t.Fatal(err)
	}
	if len(good.models) != 2 || good.models[1].width != 16 || good.models[0].seed != 5 {
		t.Fatalf("models = %+v", good.models)
	}
	for _, tc := range []config{
		{mix: "nope", endpoint: "both", concurrency: 1, cycles: 1, streamBatch: 1},
		{mix: "hd", endpoint: "sideways", concurrency: 1, cycles: 1, streamBatch: 1},
		{mix: "hd", endpoint: "unary", concurrency: 0, cycles: 1, streamBatch: 1},
	} {
		if err := tc.parseModels("a:8"); err == nil {
			t.Errorf("config %+v must be rejected", tc)
		}
	}
	ok := config{mix: "hd", endpoint: "unary", concurrency: 1, cycles: 1, streamBatch: 1}
	for _, spec := range []string{"", "noseparator", "mod:zero", "mod:-1"} {
		c := ok
		if err := c.parseModels(spec); err == nil {
			t.Errorf("spec %q must be rejected", spec)
		}
	}
}
