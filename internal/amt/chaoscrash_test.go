// Crash chaos harness: the rank-death counterpart of TestChaosProfiles.
// Full multipole evaluations (cube/sphere x Laplace/Yukawa) across four
// socket-joined ranks with one worker rank dropping dead at 25/50/75% of its
// local progress — plus a combined profile layering the death on the
// acceptance wire (drops, dups, reorder, slow rank). The death is detected
// by rank 0's heartbeat monitor; its verdict fails the run on every
// survivor with a *core.RankLostError naming the victim — the path a
// SIGKILLed production rank takes — and the caller re-runs the job on the
// survivors, whose answer is gated at 1e-12 relative against the sequential
// evaluation. Run the full matrix with `make chaos-crash`; `go test -short`
// (the ci target) keeps one mid-run death and the combined profile.
package amt_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/amt"
	"repro/internal/core"
)

const chaosVictim = 1

type chaosCrashCase struct {
	name  string
	at    float64
	wired bool // layer the acceptance wire profile under the death
}

func chaosCrashCases(short bool) []chaosCrashCase {
	if short {
		return []chaosCrashCase{
			{name: "kill50", at: 0.50},
			{name: "kill50+wire", at: 0.50, wired: true},
		}
	}
	return []chaosCrashCase{
		{name: "kill25", at: 0.25},
		{name: "kill50", at: 0.50},
		{name: "kill75", at: 0.75},
		{name: "kill50+wire", at: 0.50, wired: true},
	}
}

// TestChaosCrash is the crash-recovery chaos entry point.
func TestChaosCrash(t *testing.T) {
	cases := chaosCrashCases(testing.Short() || chaosRace)

	for _, wl := range chaosWorkloads() {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			cw := newChaosWorld(t, wl)
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					var fault *amt.FaultProfile
					if tc.wired {
						fault = &amt.FaultProfile{
							Drop: 0.10, Duplicate: 0.10,
							Reorder: true, ReorderJitter: time.Millisecond,
							SlowRank: 2, SlowDelay: 3 * time.Millisecond,
						}
					}
					cls := chaosClusters(t, fault)
					_, _, errs := cw.runOn(t, cls, map[int]float64{chaosVictim: tc.at}, nil)
					for r, err := range errs {
						var lost *core.RankLostError
						switch {
						case r == chaosVictim:
							if err == nil {
								t.Errorf("victim rank %d finished cleanly after closing its cluster", r)
							}
						case !errors.As(err, &lost) || lost.Rank != chaosVictim:
							t.Fatalf("%s under %s: rank %d returned %v, want the loss of rank %d", wl.name, tc.name, r, err, chaosVictim)
						}
					}

					// The caller's re-run on the survivors.
					cls[chaosVictim] = nil
					jobs := chaosJob(t, cls)
					got, reps, errs := cw.runOn(t, cls, nil, jobs)
					jobs[0].End()
					for r, err := range errs {
						if err != nil {
							t.Fatalf("%s under %s: re-run: rank %d: %v", wl.name, tc.name, r, err)
						}
					}
					assertChaosClose(t, got, cw.want)
					if ts := sumTransport(reps); tc.wired && ts.Retried == 0 {
						t.Error("wired profile observed no retry")
					}
				})
			}
		})
	}
}

// chaosJob starts the next job of a standing cluster on rank 0 and returns,
// rank by rank, what each live rank runs: rank 0 the job it allocated, a
// worker the one its own log hands it. The caller ends jobs[0].
func chaosJob(t *testing.T, cls []*amt.Cluster) []*amt.Job {
	t.Helper()
	jobs := make([]*amt.Job, len(cls))
	var err error
	if jobs[0], err = cls[0].StartJob(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	for r, cl := range cls {
		if r == 0 || cl == nil {
			continue
		}
		sub := cl.Subscribe()
		timeout := time.AfterFunc(10*time.Second, sub.Close)
		for jobs[r] == nil {
			ev, ok := sub.Next()
			if !ok {
				t.Fatalf("rank %d's log held no job %d within 10s", r, jobs[0].Gen)
			}
			if ev.Kind == amt.EventJob && ev.Gen == jobs[0].Gen {
				jobs[r] = ev.Job
			}
		}
		timeout.Stop()
		sub.Close()
	}
	return jobs
}
