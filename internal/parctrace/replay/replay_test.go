package replay

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parc751/internal/faultinject"
	"parc751/internal/parctrace"
	"parc751/internal/probe"
)

// TestReplayDeterminism is the package contract end to end: for every
// workload kind and several seeds, record a seeded chaos run, replay its
// dump's coordinate, and require the canonical projections to be
// bit-identical with the same fault ordinals. This is the in-process
// half of experiment A12 (the registered ablation runs the same matrix
// at quick scale).
func TestReplayDeterminism(t *testing.T) {
	seeds := []uint64{751, 852, 953}
	for _, kind := range Kinds() {
		for _, seed := range seeds {
			t.Run(kind+"/"+itoa(seed), func(t *testing.T) {
				spec := parctrace.WorkloadSpec{
					Kind: kind, Seed: seed, N: QuickN(kind), Workers: 2, Chaos: true,
				}
				rec, err := Record(spec, 512)
				if err != nil {
					t.Fatalf("Record: %v", err)
				}
				if len(rec.Faults) == 0 {
					t.Fatalf("chaos run surfaced no fault ordinals: plan %+v", rec.Plan)
				}
				if rec.Counts["submit"] == 0 && rec.Counts["region_start"] == 0 {
					t.Fatal("recording captured no work")
				}
				rep, err := Replay(rec, 512)
				if err != nil {
					t.Fatalf("Replay: %v", err)
				}
				if err := Verify(rec, rep); err != nil {
					t.Fatalf("replay diverged: %v", err)
				}
			})
		}
	}
}

// TestQuicksortPlanFiresAtSmallN: the quicksort plan is scaled to the
// task count, so every planned rule fires even when the sort runs only
// a handful of tasks.
func TestQuicksortPlanFiresAtSmallN(t *testing.T) {
	for _, n := range []int{600, 3000} {
		for _, seed := range []uint64{1, 2, 751} {
			spec := parctrace.WorkloadSpec{Kind: KindQuicksort, Seed: seed, N: n, Workers: 2, Chaos: true}
			rec, err := Record(spec, 256)
			if err != nil {
				t.Fatalf("n=%d seed=%d: Record: %v", n, seed, err)
			}
			if planned := len(rec.Plan.Rules); len(rec.Faults) != planned {
				t.Errorf("n=%d seed=%d: %d of %d planned faults fired: %v",
					n, seed, len(rec.Faults), planned, rec.Faults)
			}
		}
	}
}

// TestReplayRequiresCoordinate: a dump without a workload spec or a
// plan cannot be replayed and says so.
func TestReplayRequiresCoordinate(t *testing.T) {
	if _, err := Replay(&parctrace.Dump{Schema: parctrace.SchemaV1, Name: "bare"}, 0); err == nil {
		t.Fatal("coordinate-free dump replayed")
	}
	spec := parctrace.WorkloadSpec{Kind: KindThumbs, Seed: 7, N: 8, Workers: 2}
	if _, err := Replay(&parctrace.Dump{Schema: parctrace.SchemaV1, Name: "planless", Workload: &spec}, 0); err == nil {
		t.Fatal("plan-free dump replayed")
	}
}

// TestReplayCommittedDumps replays dumps recorded by an earlier version
// of cmd/parctrace (testdata/*.json, seed 751, -chaos -cap 64): the
// dump, not the current catalogue, is the replay coordinate, so they
// must keep verifying.
func TestReplayCommittedDumps(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed dumps: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := parctrace.ReadDump(data)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Replay(rec, 64)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if err := Verify(rec, rep); err != nil {
				t.Fatalf("committed dump diverged: %v", err)
			}
		})
	}
}

// TestReplayRunsDumpPlan: a dump whose plan differs from what
// DefaultPlan derives for its spec replays under the stored plan. With
// Chaos cleared the default plan is empty, yet the recorded faults must
// fire again. The recordings run at the catalogue's default sizes, so
// they also pin that those sizes reach quicksort's 1024-element leaves
// (its plan: 4 submit delays + 1 run stall) and thumbs' five panics.
func TestReplayRunsDumpPlan(t *testing.T) {
	wantRules := map[string]int{KindQuicksort: 5, KindThumbs: 5}
	for _, kind := range []string{KindQuicksort, KindThumbs, KindWebfetch, KindPartition} {
		t.Run(kind, func(t *testing.T) {
			rec, err := Record(parctrace.WorkloadSpec{Kind: kind, Seed: 852, Workers: 2, Chaos: true}, 256)
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := wantRules[kind]; ok && len(rec.Plan.Rules) != want {
				t.Fatalf("default-size plan has %d rules, want %d: %+v", len(rec.Plan.Rules), want, rec.Plan.Rules)
			}
			if kind == KindQuicksort && quicksortThreshold(rec.Workload.N) != 1024 {
				t.Fatalf("default N %d sorts %d-element leaves, want 1024", rec.Workload.N, quicksortThreshold(rec.Workload.N))
			}
			rec.Workload.Chaos = false
			if len(DefaultPlan(*rec.Workload).Rules) != 0 || len(rec.Faults) == 0 {
				t.Fatalf("want a recorded plan that differs from the default: %+v", rec.Plan)
			}
			rep, err := Replay(rec, 256)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if err := Verify(rec, rep); err != nil {
				t.Fatalf("replay ignored the dump's plan: %v", err)
			}
		})
	}
}

// TestReplayPartitionedEverywhere replays a partition dump whose stored plan
// fails every router→node attempt: each request tries both nodes and is
// answered 502. The scenario's invariants (every answer 200 or 502, the
// ledger balanced with Lost = 0, completed jobs = jobs run) then leave
// only Rejected = N with no task run on a node: rejected, never lost.
func TestReplayPartitionedEverywhere(t *testing.T) {
	spec := parctrace.WorkloadSpec{Kind: KindPartition, Seed: 751, N: QuickN(KindPartition), Workers: 2}
	plan := faultinject.Plan{Name: "partitioned-everywhere", Seed: spec.Seed,
		Rules: []faultinject.Rule{{Site: probe.SiteTransport, Kind: faultinject.Error, Every: 1}}}
	rep, err := Replay(&parctrace.Dump{Schema: parctrace.SchemaV1, Name: plan.Name,
		Workload: &spec, Plan: &plan}, 256)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Counts["submit"] != 0 || rep.Counts["run"] != 0 {
		t.Errorf("a job ran on a partitioned node: counts %v", rep.Counts)
	}
	if want := 2 * spec.N; len(rep.Faults) != want {
		t.Errorf("%d transport faults, want %d (both nodes tried per request)", len(rep.Faults), want)
	}
}

// TestRecordFaultsAreFiredEvents: a dump's fault list holds one
// site@ordinal:kind entry per fired fault and nothing else. A run without
// chaos has none (and the viewer shows no fault section); a thumbs run
// with chaos fires every planned panic, so the list is exactly the
// plan's rules at their ordinals.
func TestRecordFaultsAreFiredEvents(t *testing.T) {
	spec := parctrace.WorkloadSpec{Kind: KindThumbs, Seed: 751, N: QuickN(KindThumbs), Workers: 2}
	clean, err := Record(spec, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Faults) != 0 {
		t.Fatalf("fault-free run recorded faults %q", clean.Faults)
	}
	var page strings.Builder
	if err := parctrace.RenderHTML(&page, clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(page.String(), "Injected faults") {
		t.Fatal("viewer shows injected faults for a fault-free run")
	}

	spec.Chaos = true
	chaos, err := Record(spec, 256)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range chaos.Plan.Rules {
		want = append(want, fmt.Sprintf("%s@%d:%s", r.Site, r.Nth, r.Kind))
	}
	if len(want) == 0 || !reflect.DeepEqual(chaos.Faults, want) {
		t.Fatalf("faults = %q, want the plan's fired events %q", chaos.Faults, want)
	}
}

// TestNormalize pins the defaulting rules Record and Replay both rely
// on: the same input spec must normalize identically on both sides.
func TestNormalize(t *testing.T) {
	spec, err := Normalize(parctrace.WorkloadSpec{Kind: KindQuicksort})
	if err != nil {
		t.Fatal(err)
	}
	if spec.N == 0 || spec.Seed == 0 || spec.Workers < 2 {
		t.Fatalf("defaults not filled: %+v", spec)
	}
	if _, err := Normalize(parctrace.WorkloadSpec{Kind: "tetris"}); err == nil ||
		!strings.Contains(err.Error(), "unknown workload kind") {
		t.Fatalf("unknown kind accepted: %v", err)
	}
}

// TestVerifyRejectsDivergence: Verify must fail loudly when the replay
// produced a different deterministic count or fault set.
func TestVerifyRejectsDivergence(t *testing.T) {
	spec := parctrace.WorkloadSpec{Kind: KindThumbs, Seed: 7, N: 8, Workers: 2, Chaos: true}
	a, err := Record(spec, 256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(a, 256)
	if err != nil {
		t.Fatal(err)
	}
	b.Counts["complete"]++
	if err := Verify(a, b); err == nil {
		t.Fatal("count divergence not detected")
	}
	b.Counts["complete"]--
	b.Faults = append([]string{}, b.Faults...)
	b.Faults[0] = "submit@999999:delay"
	if err := Verify(a, b); err == nil {
		t.Fatal("fault divergence not detected")
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
