package bytecard

import (
	"encoding/json"
	"strings"
	"testing"

	"bytecard/internal/faultinject"
	"bytecard/internal/obs"
)

// TestEstimateDetailTracesModelSources drives one query per model family
// through the Detail API and checks that the trace attributes the estimate
// to the model the paper's architecture routes it to.
func TestEstimateDetailTracesModelSources(t *testing.T) {
	sys := openToy(t)
	cases := []struct {
		name   string
		sql    string
		ndv    bool
		source string
	}{
		{"single-table-bn", "SELECT COUNT(*) FROM fact WHERE val < 50", false, "bn"},
		{"join-factorjoin", "SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat <= 3", false, "factorjoin"},
		{"distinct-rbx", "SELECT COUNT(DISTINCT fact.val) FROM fact", true, "rbx"},
		{"groupby-rbx", "SELECT COUNT(*) FROM fact GROUP BY fact.flag", true, "rbx"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kind := EstimateRows
			if tc.ndv {
				kind = EstimateDistinct
			}
			d, err := sys.Estimate(tc.sql, EstimateOpts{Kind: kind, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if d.Value <= 0 {
				t.Errorf("estimate = %g, want > 0", d.Value)
			}
			if d.Source != tc.source {
				t.Errorf("source = %q, want %q (trace: %v)", d.Source, tc.source, d.Trace.Spans())
			}
			if d.Fallback {
				t.Errorf("healthy models must not fall back (trace: %v)", d.Trace.Spans())
			}
			if d.Trace.Len() == 0 {
				t.Error("trace recorded no spans")
			}
		})
	}
}

// TestFaultTraceRecordsGuardOutcome injects a BN panic and checks that the
// Detail API degrades to the traditional estimator while the trace records
// both the guard's verdict and the fallback that answered.
func TestFaultTraceRecordsGuardOutcome(t *testing.T) {
	sys := openToy(t)
	inj := faultinject.New(7)
	inj.Arm(faultinject.Rule{Kind: faultinject.Panic, KeyPrefix: "bn:"})
	sys.SetFaultHook(inj)
	defer sys.SetFaultHook(nil)

	d, err := sys.Estimate("SELECT COUNT(*) FROM fact WHERE val < 50", EstimateOpts{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Fallback {
		t.Errorf("fault-injected estimate must be flagged as fallback (trace: %v)", d.Trace.Spans())
	}
	if d.Source != "sketch" {
		t.Errorf("source = %q, want %q", d.Source, "sketch")
	}
	var panicked, fellBack bool
	for _, s := range d.Trace.Spans() {
		if s.Outcome == obs.OutcomePanic && s.Key == "bn:fact" {
			panicked = true
		}
		if s.Fallback && s.Source == "sketch" && s.Err != "" {
			fellBack = true
		}
	}
	if !panicked {
		t.Errorf("no span with outcome %q for bn:fact (trace: %v)", obs.OutcomePanic, d.Trace.Spans())
	}
	if !fellBack {
		t.Errorf("no fallback span carrying the failure cause (trace: %v)", d.Trace.Spans())
	}
	found := false
	for _, o := range d.Trace.Outcomes() {
		if o == obs.OutcomePanic {
			found = true
		}
	}
	if !found {
		t.Errorf("Outcomes() = %v, want to include %q", d.Trace.Outcomes(), obs.OutcomePanic)
	}
}

// TestExplainAnnotatesPlanNodes checks that EXPLAIN reports per-node
// estimates with the estimator source that produced each one.
func TestExplainAnnotatesPlanNodes(t *testing.T) {
	sys := openToy(t)
	res, err := sys.Explain("SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id AND d.cat <= 3")
	if err != nil {
		t.Fatal(err)
	}
	var scans, joins int
	for _, n := range res.Nodes {
		switch n.Kind {
		case "scan":
			scans++
			if n.Source != "bn" {
				t.Errorf("scan %v source = %q, want bn", n.Tables, n.Source)
			}
			if n.Strategy == "" {
				t.Errorf("scan %v has no strategy", n.Tables)
			}
		case "join":
			joins++
			if n.Source != "factorjoin" {
				t.Errorf("join %v source = %q, want factorjoin", n.Tables, n.Source)
			}
			if n.EstRows <= 0 {
				t.Errorf("join %v est_rows = %g, want > 0", n.Tables, n.EstRows)
			}
		}
	}
	if scans != 2 || joins != 1 {
		t.Errorf("got %d scans and %d joins, want 2 and 1 (nodes: %+v)", scans, joins, res.Nodes)
	}
	if res.EstFinalRows <= 0 {
		t.Errorf("est_final_rows = %g, want > 0", res.EstFinalRows)
	}
	if len(res.Trace) == 0 {
		t.Error("explain trace is empty")
	}
	out := res.String()
	if !strings.Contains(out, "source=bn") || !strings.Contains(out, "source=factorjoin") {
		t.Errorf("rendered plan missing sources:\n%s", out)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("explain result not serializable: %v", err)
	}
}

// TestExplainAggregateNode checks NDV presizing shows up as an annotated
// aggregate node.
func TestExplainAggregateNode(t *testing.T) {
	sys := openToy(t)
	res, err := sys.Explain("SELECT COUNT(*) FROM fact GROUP BY fact.flag")
	if err != nil {
		t.Fatal(err)
	}
	var agg *string
	for _, n := range res.Nodes {
		if n.Kind == "aggregate" {
			s := n.Source
			agg = &s
			if n.EstRows <= 0 {
				t.Errorf("aggregate est_rows = %g, want > 0", n.EstRows)
			}
		}
	}
	if agg == nil {
		t.Fatalf("no aggregate node (nodes: %+v)", res.Nodes)
	}
	if *agg != "rbx" {
		t.Errorf("aggregate source = %q, want rbx", *agg)
	}
}

// TestMetricsSnapshot checks the Metrics surface: counters move, sources
// are attributed, the snapshot serializes, and the deprecated Health view
// stays consistent with it.
func TestMetricsSnapshot(t *testing.T) {
	sys := openToy(t)
	if _, err := sys.EstimateCount("SELECT COUNT(*) FROM fact WHERE val < 50"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("SELECT COUNT(*) FROM fact f, dim d WHERE f.dim_id = d.id"); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	if m.Estimator.Calls == 0 {
		t.Error("estimator calls not counted")
	}
	if m.Estimator.ModelCalls == 0 {
		t.Error("model calls not counted")
	}
	if len(m.Estimator.Sources) == 0 {
		t.Error("no per-source attribution")
	}
	if m.Estimator.Sources["bn"] == 0 {
		t.Errorf("bn not attributed (sources: %v)", m.Estimator.Sources)
	}
	if m.Estimator.ModelLatencyNs.Count == 0 {
		t.Error("model latency histogram empty")
	}
	if m.Engine.Queries == 0 {
		t.Error("engine query volume not counted")
	}
	if m.Engine.PlanQError.Count == 0 {
		t.Error("plan q-error histogram empty")
	}
	if m.Loader.LastSuccess.IsZero() {
		t.Error("loader never refreshed")
	}
	if m.Loader.Installed == 0 {
		t.Error("loader reports no installed models")
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(m.String()), &decoded); err != nil {
		t.Fatalf("Metrics.String() is not JSON: %v", err)
	}
	for _, key := range []string{"estimator", "guard", "registry", "loader", "engine"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("serialized metrics missing %q", key)
		}
	}
	if _, ok := decoded["caches"]; !ok {
		t.Error("serialized metrics missing \"caches\"")
	}
	// The derived caches surface uniformly; a fresh system has at least the
	// join-vector and plan caches registered.
	for _, name := range []string{"joinvec", "plan"} {
		if _, ok := m.Caches[name]; !ok {
			t.Errorf("Metrics.Caches missing %q (have %v)", name, m.Caches)
		}
	}
}

// TestModelAdminView checks the registry's admin surface: Disable and
// Enable show up in State and Usable and decide whether estimation falls
// back.
func TestModelAdminView(t *testing.T) {
	sys := openToy(t)
	admin := sys.Infer.Admin()
	st := admin.State("bn:fact")
	if st.Disabled {
		t.Error("bn:fact disabled on a fresh system")
	}
	if !admin.Usable("bn:fact") {
		t.Error("bn:fact not usable on a fresh system")
	}
	admin.Disable("bn:fact")
	if !admin.State("bn:fact").Disabled {
		t.Error("Disable did not take")
	}
	if admin.Usable("bn:fact") {
		t.Error("disabled key still usable")
	}
	d, err := sys.Estimate("SELECT COUNT(*) FROM fact WHERE val < 50", EstimateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Fallback || d.Source != "sketch" {
		t.Errorf("disabled model should fall back to sketch, got source=%q fallback=%v", d.Source, d.Fallback)
	}
	admin.Enable("bn:fact")
	if admin.State("bn:fact").Disabled {
		t.Error("Enable did not take")
	}
	d, err = sys.Estimate("SELECT COUNT(*) FROM fact WHERE val < 50", EstimateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Source != "bn" {
		t.Errorf("re-enabled model should answer, got source=%q", d.Source)
	}
}
