// Crash-recovery chaos harness: the rank-death counterpart of
// TestChaosProfiles. Full multipole evaluations (cube/sphere x
// Laplace/Yukawa) across four socket-joined ranks with one worker rank
// dropping dead at 25/50/75% of its local progress — plus a combined profile
// layering the death on the acceptance wire (drops, dups, reorder, slow
// rank) — gated at 1e-12 relative against the sequential evaluation. The
// death is detected by rank 0's heartbeat monitor and recovered by
// distExec.applyDeath on every survivor: the code a SIGKILLed production
// rank exercises. Run the full matrix with `make chaos-crash`; `go test
// -short` (the ci target) keeps one mid-run death and the combined profile.
package amt_test

import (
	"testing"
	"time"

	"repro/internal/amt"
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
					got, reps, errs := cw.run(t, fault, map[int]float64{chaosVictim: tc.at})
					for r, err := range errs {
						if r == chaosVictim {
							if err == nil {
								t.Errorf("victim rank %d finished cleanly after closing its cluster", r)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s under %s: rank %d: %v", wl.name, tc.name, r, err)
						}
					}
					assertChaosClose(t, got, cw.want)

					// NodesRebuilt is logged, not asserted: each survivor
					// counts only the nodes it inherited, and rank 0 may
					// inherit few.
					rec := reps[0].Recovery
					t.Logf("%s/%s: %s", wl.name, tc.name, rec)
					if rec.RanksKilled != 1 {
						t.Errorf("RanksKilled = %d, want 1", rec.RanksKilled)
					}
					if ts := sumTransport(reps); tc.wired && ts.Retried == 0 {
						t.Error("wired profile observed no retry")
					}
				})
			}
		})
	}
}
