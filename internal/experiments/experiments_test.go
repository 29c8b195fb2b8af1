package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/workload"
)

// quickOpts shrinks runs so the unit-test suite stays fast.
func quickOpts() Options {
	o := DefaultOptions()
	o.Quick = true
	return o
}

func TestRunSweepQuickGrid(t *testing.T) {
	sw, err := RunSweep([]int{25}, []workload.Kind{workload.WordCount}, []ManagerKind{Standalone, Custody}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(sw.Cells))
	}
	for _, c := range sw.Cells {
		if len(c.Col.Jobs) != 4*6 {
			t.Fatalf("%v: jobs = %d, want 24", c.Manager, len(c.Col.Jobs))
		}
	}
	if sw.Find(25, workload.WordCount, Custody) == nil {
		t.Fatal("Find missed an existing cell")
	}
	if sw.Find(99, workload.WordCount, Custody) != nil {
		t.Fatal("Find invented a cell")
	}
	if got := sw.Sizes(); len(got) != 1 || got[0] != 25 {
		t.Fatalf("Sizes = %v", got)
	}
	if got := sw.Kinds(); len(got) != 1 || got[0] != workload.WordCount {
		t.Fatalf("Kinds = %v", got)
	}
}

func TestFigureTablesRender(t *testing.T) {
	sw, err := RunSweep([]int{16}, []workload.Kind{workload.Sort}, []ManagerKind{Standalone, Custody}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []Table{sw.Fig7(), sw.Fig8(), sw.Fig9(), sw.Fig10()} {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: no rows", tbl.Title)
		}
		out := tbl.Render()
		if !strings.Contains(out, "Sort") || !strings.Contains(out, "custody") {
			t.Fatalf("%s render malformed:\n%s", tbl.Title, out)
		}
		_ = tbl.AverageGain()
	}
}

func TestGainDirections(t *testing.T) {
	if g := gain(10, 12, true); g != 20 {
		t.Fatalf("higher-better gain = %v", g)
	}
	if g := gain(10, 8, false); g != 20 {
		t.Fatalf("lower-better gain = %v", g)
	}
	if g := gain(0, 5, true); g != 0 {
		t.Fatalf("zero-baseline gain = %v", g)
	}
}

func TestNewManagerKinds(t *testing.T) {
	for _, k := range []ManagerKind{Standalone, Custody, Offer} {
		if m := NewManager(k, 1); m == nil || m.Name() == "" {
			t.Fatalf("NewManager(%v) broken", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown manager did not panic")
		}
	}()
	NewManager("bogus", 1)
}

func TestRunApprox(t *testing.T) {
	res := RunApprox(30, 7)
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.MinRatio < 0.5-1e-9 {
		t.Fatalf("greedy broke the 2-approximation bound: min ratio %v", res.MinRatio)
	}
	if res.MeanRatio < res.MinRatio || res.MeanRatio > 1+1e-9 {
		t.Fatalf("mean ratio %v out of range", res.MeanRatio)
	}
	for _, r := range res.Rows {
		if r.Greedy > r.Optimal+1e-9 {
			t.Fatalf("greedy exceeded optimal: %+v", r)
		}
		if r.Fractional < 0 || r.Fractional > 1 {
			t.Fatalf("fractional bound out of [0,1]: %+v", r)
		}
	}
	if !strings.Contains(res.Render(), "2-approx") && !strings.Contains(res.Render(), "0.5") {
		t.Fatal("render missing bound")
	}
}

func TestRunIntraQuick(t *testing.T) {
	res, err := RunIntra(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var prio, fair StrategyRow
	for _, r := range res.Rows {
		switch r.Strategy {
		case "priority":
			prio = r
		case "fairness":
			fair = r
		}
	}
	// The priority strategy must yield more perfectly local jobs and a
	// lower stylized completion time than job-fairness (Fig. 4–5).
	if prio.LocalJobs+1e-9 < fair.LocalJobs {
		t.Fatalf("priority localJobs %.3f < fairness %.3f", prio.LocalJobs, fair.LocalJobs)
	}
	if prio.AvgUnits > fair.AvgUnits+1e-9 {
		t.Fatalf("priority avg units %.3f > fairness %.3f", prio.AvgUnits, fair.AvgUnits)
	}
	if !strings.Contains(res.Render(), "priority") {
		t.Fatal("render missing strategy")
	}
}

func TestRunScarlettQuick(t *testing.T) {
	res, err := RunScarlett(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !strings.Contains(res.Render(), "popularity") {
		t.Fatal("render missing policy")
	}
}

func TestRunOfferQuick(t *testing.T) {
	res, err := RunOffer(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Custody must not be rejected: it never uses the offer path.
	for _, r := range res.Rows {
		if r.Manager == Custody && r.Rejections != 0 {
			t.Fatalf("custody recorded offer rejections: %+v", r)
		}
	}
	_ = res.Render()
}

func TestRunWaitQuick(t *testing.T) {
	res, err := RunWait(quickOpts(), []float64{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// With zero wait the baseline's locality can only drop (or stay) vs 3 s.
	var w0, w3 float64
	for _, r := range res.Rows {
		if r.Manager == Standalone && r.WaitSec == 0 {
			w0 = r.Locality
		}
		if r.Manager == Standalone && r.WaitSec == 3 {
			w3 = r.Locality
		}
	}
	if w0 > w3+0.05 {
		t.Fatalf("locality with wait=0 (%.3f) above wait=3 (%.3f)", w0, w3)
	}
	_ = res.Render()
}

func TestRunSpeculationQuick(t *testing.T) {
	res, err := RunSpeculation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	_ = res.Render()
}

// TestPaperSweepShapes is the headline integration test: it runs the full
// paper grid (skipped with -short) and asserts the qualitative claims of
// §VI hold in the reproduction.
func TestPaperSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper sweep is slow; run without -short")
	}
	if race.Enabled {
		t.Skip("full paper sweep is ~10x slower under the race detector; TestRunSweepQuickGrid covers the same paths")
	}
	sw, err := RunSweep(PaperSizes, workload.Kinds(), []ManagerKind{Standalone, Custody}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fig7 := sw.Fig7()
	t.Logf("\n%s\n%s\n%s\n%s", fig7.Render(), sw.Fig8().Render(), sw.Fig9().Render(), sw.Fig10().Render())

	// Claim 1 (Fig. 7): at the largest cluster, Custody improves locality
	// substantially for every workload.
	for _, r := range fig7.Rows {
		if r.Size != 100 {
			continue
		}
		if r.GainPct < 5 {
			t.Errorf("Fig7 %v@100: locality gain %.2f%% < 5%%", r.Kind, r.GainPct)
		}
		if r.Custody.Mean < 0.90 {
			t.Errorf("Fig7 %v@100: custody locality %.3f < 0.90", r.Kind, r.Custody.Mean)
		}
	}
	// Claim 2 (Fig. 7 / §VI-C): Custody's locality gain grows with the
	// cluster size (compare smallest vs largest size per workload).
	for _, kind := range sw.Kinds() {
		var small, large float64
		for _, r := range fig7.Rows {
			if r.Kind != kind {
				continue
			}
			switch r.Size {
			case 25:
				small = r.GainPct
			case 100:
				large = r.GainPct
			}
		}
		if large <= small {
			t.Errorf("locality gain for %v did not grow with cluster size: %.2f%% → %.2f%%", kind, small, large)
		}
	}
	// Claim 3 (Fig. 8): Custody reduces mean JCT at the largest cluster.
	for _, r := range sw.Fig8().Rows {
		if r.Size == 100 && r.GainPct <= 0 {
			t.Errorf("Fig8 %v@100: JCT gain %.2f%% <= 0", r.Kind, r.GainPct)
		}
	}
	// Claim 4 (Fig. 9): input stages are faster under Custody.
	for _, r := range sw.Fig9().Rows {
		if r.GainPct <= 0 {
			t.Errorf("Fig9 %v: input-stage gain %.2f%% <= 0", r.Kind, r.GainPct)
		}
	}
	// Claim 5 (Fig. 10): scheduler delay under Custody is lower at the
	// largest cluster ("tasks under Custody experience shorter delay").
	for _, r := range sw.Fig10().Rows {
		if r.Size == 100 && r.GainPct <= 0 {
			t.Errorf("Fig10 %v@100: delay gain %.2f%% <= 0", r.Kind, r.GainPct)
		}
	}
}

func TestRunManagersQuick(t *testing.T) {
	res, err := RunManagers(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byMgr := map[ManagerKind]ManagerRow{}
	for _, r := range res.Rows {
		byMgr[r.Manager] = r
		if r.Utilization < 0 || r.Utilization > 1 {
			t.Fatalf("utilization out of range: %+v", r)
		}
	}
	// Custody must beat the data-unaware managers on locality.
	if byMgr[Custody].Locality < byMgr[Standalone].Locality {
		t.Fatalf("custody locality %.3f < standalone %.3f",
			byMgr[Custody].Locality, byMgr[Standalone].Locality)
	}
	if byMgr[Custody].Locality < byMgr[YARN].Locality {
		t.Fatalf("custody locality %.3f < yarn %.3f",
			byMgr[Custody].Locality, byMgr[YARN].Locality)
	}
	if !strings.Contains(res.Render(), "yarn") {
		t.Fatal("render missing yarn")
	}
}

func TestRunSchedulersQuick(t *testing.T) {
	if race.Enabled {
		t.Skip("scheduler comparison grid is too slow under the race detector; the other Quick sims cover the same engine paths")
	}
	res, err := RunSchedulers(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// FIFO is data-unaware: delay scheduling must not lose to it on
	// locality under the same manager.
	loc := map[string]float64{}
	for _, r := range res.Rows {
		loc[string(r.Scheduler)+"/"+string(r.Manager)] = r.Locality
	}
	if loc["delay/spark"]+1e-9 < loc["fifo/spark"] {
		t.Fatalf("delay %.3f < fifo %.3f under spark", loc["delay/spark"], loc["fifo/spark"])
	}
	_ = res.Render()
}

func TestRunFailuresQuick(t *testing.T) {
	res, err := RunFailures(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Failures == 0 && r.Retried != 0 {
			t.Fatalf("retries without failures: %+v", r)
		}
	}
	_ = res.Render()
}

func TestRepeatsPoolsRecords(t *testing.T) {
	opts := quickOpts()
	opts.Repeats = 2
	sw, err := RunSweep([]int{16}, []workload.Kind{workload.WordCount}, []ManagerKind{Custody}, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := sw.Find(16, workload.WordCount, Custody)
	// 2 seeds × 4 apps × 6 jobs = 48 jobs pooled.
	if len(c.Col.Jobs) != 48 {
		t.Fatalf("pooled jobs = %d, want 48", len(c.Col.Jobs))
	}
}

func TestRenderBars(t *testing.T) {
	sw, err := RunSweep([]int{16}, []workload.Kind{workload.Sort}, []ManagerKind{Standalone, Custody}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := sw.Fig7().RenderBars()
	if !strings.Contains(out, "#") || !strings.Contains(out, "=") || !strings.Contains(out, "custody") {
		t.Fatalf("bars malformed:\n%s", out)
	}
}

func TestRunSelectorsQuick(t *testing.T) {
	res, err := RunSelectors(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !strings.Contains(res.Render(), "closest") {
		t.Fatal("render missing selector")
	}
}

func TestRunHeteroQuick(t *testing.T) {
	res, err := RunHetero(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// homogeneous ×2 managers + slow ×2 managers ×2 speculation = 6 rows.
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Slowing 20% of nodes must not speed anything up.
	var homo, slow float64
	for _, r := range res.Rows {
		if r.Manager == Custody && !r.Speculation {
			if r.Slow {
				slow = r.JCT
			} else {
				homo = r.JCT
			}
		}
	}
	if slow < homo {
		t.Fatalf("heterogeneous cluster faster than homogeneous: %.2f < %.2f", slow, homo)
	}
	_ = res.Render()
}

func TestWriteMarkdownReport(t *testing.T) {
	sw, err := RunSweep([]int{16}, []workload.Kind{workload.Sort}, []ManagerKind{Standalone, Custody}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMarkdownReport(&buf, sw); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# Custody reproduction report", "| nodes |", "Headline aggregates", "Fig. 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunHintsQuick(t *testing.T) {
	res, err := RunHints(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	_ = res.Render()
}

func TestRunChaosQuick(t *testing.T) {
	if race.Enabled {
		t.Skip("the chaos sweep runs 8 full sims; the dedicated -race smoke in internal/chaos covers the fault paths")
	}
	res, err := RunChaos(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ChaosLevels) * 2; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, r := range res.Rows {
		if r.Violations != 0 {
			t.Errorf("%s/%s: %d invariant violations", r.Level, r.Manager, r.Violations)
		}
		if r.JobsDone != r.JobsTotal {
			t.Errorf("%s/%s: %d of %d jobs completed", r.Level, r.Manager, r.JobsDone, r.JobsTotal)
		}
		if r.Level == "none" && r.Faults != 0 {
			t.Errorf("control row applied %d faults", r.Faults)
		}
		if r.Level == "high" && r.Faults == 0 {
			t.Errorf("high level applied no faults")
		}
	}
	if !strings.Contains(res.Render(), "chaos sweep") {
		t.Fatal("render missing header")
	}
}

// TestStudiesHonorLocalityWait runs four studies that do not sweep the
// locality wait at 1 s and 3 s. Each must build its runs with
// Options.LocalityWait, so the rows must differ.
func TestStudiesHonorLocalityWait(t *testing.T) {
	studies := []struct {
		name string
		rows func(Options) (any, error)
	}{
		{"scarlett", func(o Options) (any, error) { r, err := RunScarlett(o); return r.Rows, err }},
		{"offer", func(o Options) (any, error) { r, err := RunOffer(o); return r.Rows, err }},
		{"spec", func(o Options) (any, error) { r, err := RunSpeculation(o); return r.Rows, err }},
		{"failures", func(o Options) (any, error) { r, err := RunFailures(o); return r.Rows, err }},
	}
	for _, s := range studies {
		t.Run(s.name, func(t *testing.T) {
			var rows [2]any
			for i, wait := range []float64{1, 3} {
				o := quickOpts()
				o.LocalityWait = wait
				r, err := s.rows(o)
				if err != nil {
					t.Fatal(err)
				}
				rows[i] = r
			}
			if reflect.DeepEqual(rows[0], rows[1]) {
				t.Fatalf("waits 1 s and 3 s gave identical rows %+v: the study ignores Options.LocalityWait", rows[0])
			}
		})
	}
}
