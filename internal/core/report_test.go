package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nullgraph/internal/converge"
	"nullgraph/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the RunReport golden file")

// collectReport runs the full pipeline instrumented at Workers=1 and
// strips the phase wall times (the only nondeterministic section).
func collectReport(t *testing.T) *obs.RunReport {
	t.Helper()
	d := mustDist(t, map[int64]int64{2: 400, 5: 40, 9: 10})
	rec := obs.NewRecorder()
	_, err := generate(d, Options{
		Workers:        1,
		Seed:           42,
		SwapIterations: 3,
		TrackSwapStats: true,
		Recorder:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	rep.Phases = nil
	return rep
}

// TestRunReportGolden pins the serialized RunReport schema AND the
// Workers=1 counter values: a change to either the JSON field set, the
// rng streams, or the rejection/probe accounting shows up as a golden
// diff. Regenerate deliberately with `go test ./internal/core -run
// RunReportGolden -update`.
func TestRunReportGolden(t *testing.T) {
	rep := collectReport(t)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "runreport_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("RunReport JSON drifted from golden file (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// The golden file must carry the schema tag round trip.
	var decoded obs.RunReport
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Schema != obs.SchemaVersion {
		t.Errorf("golden schema = %q, want %q", decoded.Schema, obs.SchemaVersion)
	}
}

// TestRunReportGoldenAdaptive pins the adaptive-stop section of the v2
// schema the same way: an adaptive Workers=1 run's full report —
// including the stop reason and checkpoint trail — must not drift.
func TestRunReportGoldenAdaptive(t *testing.T) {
	d := mustDist(t, map[int64]int64{2: 400, 5: 40, 9: 10})
	rec := obs.NewRecorder()
	_, err := generate(d, Options{
		Workers:  1,
		Seed:     42,
		Recorder: rec,
		StopPolicy: &converge.Policy{
			Floor:  6,
			Budget: 48,
			Growth: 1.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	rep.Phases = nil
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "runreport_adaptive_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("adaptive RunReport JSON drifted from golden file (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	var decoded obs.RunReport
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Stop == nil || decoded.Stop.Policy != "adaptive" {
		t.Fatalf("golden stop section missing or not adaptive: %+v", decoded.Stop)
	}
	if decoded.Stop.Iterations < 6 {
		t.Errorf("adaptive run stopped at %d iterations, inside the floor", decoded.Stop.Iterations)
	}
	if len(decoded.Stop.Checkpoints) == 0 {
		t.Error("adaptive golden has no checkpoints")
	}
}

// TestPipelineReportDeterministic is the acceptance criterion at the
// pipeline level: same seed, Workers=1, two runs — identical counters.
func TestPipelineReportDeterministic(t *testing.T) {
	a, b := collectReport(t), collectReport(t)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("pipeline reports differ across identical seeded runs:\n%+v\n%+v", a, b)
	}
	if a.EdgeSkip == nil || a.EdgeSkip.TotalEdges == 0 || a.SwapTotals.Attempts == 0 {
		t.Errorf("degenerate report: %+v", a)
	}
}
