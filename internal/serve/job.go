package serve

import "encoding/json"

// jobSpec is the job payload rank 0 broadcasts over the cluster's control
// star for one distributed evaluation. It carries everything a worker rank
// needs to build the identical plan and charge vector (SPMD: every rank
// derives the same tree, DAG, placement and charges from the same scenario).
// What identifies the run — its wire generation, which also seeds it, and the
// dead-rank base of the placement — is the cluster's to carry (amt.Job).
// Charges travel as their generator seed, so the control frame stays small
// and a request with inline charges stays in-process (distEligible).
type jobSpec struct {
	Distribution string  `json:"distribution"`
	N            int     `json:"n"`
	Seed         int64   `json:"seed"`
	Kernel       string  `json:"kernel"`
	Lambda       float64 `json:"lambda,omitempty"`
	Digits       int     `json:"digits"`
	Threshold    int     `json:"threshold"`
	ChargeSeed   int64   `json:"charge_seed"`

	// TimeoutMS is rank 0's evaluation budget; a worker's run ends a grace
	// margin later, so a coordinator-side end resolves the run before the
	// workers give up on their own.
	TimeoutMS int64 `json:"timeout_ms"`
}

//dashmm:wire jobspec encode jobSpec
func (j *jobSpec) encode() []byte {
	b, err := json.Marshal(j)
	if err != nil {
		// Every field is a plain scalar; Marshal cannot fail.
		panic("serve: jobSpec encode: " + err.Error())
	}
	return b
}

//dashmm:wire jobspec decode jobSpec
func decodeJobSpec(b []byte) (*jobSpec, error) {
	var j jobSpec
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// jobSpecFrom captures a normalized request's plan-defining fields, with
// the threshold rank 0's plan was actually built with in place of the
// request's (which may be 0, "choose for me"): worker ranks build with an
// explicit value and never run the tuner, so every rank has rank 0's tree
// whatever cost table its binary carries.
func jobSpecFrom(r *Request, threshold int) *jobSpec {
	return &jobSpec{
		Distribution: r.Distribution,
		N:            r.N,
		Seed:         r.Seed,
		Kernel:       r.Kernel,
		Lambda:       r.Lambda,
		Digits:       r.Digits,
		Threshold:    threshold,
		ChargeSeed:   r.ChargeSeed,
	}
}

// planRequest reconstructs the Request a worker rank uses to build (and
// cache) the job's plan and to generate its charges. Normalizing it with
// unlimited points yields the exact same inputs rank 0 used.
func (j *jobSpec) planRequest() (*Request, error) {
	r := &Request{
		Distribution: j.Distribution,
		N:            j.N,
		Seed:         j.Seed,
		Kernel:       j.Kernel,
		Lambda:       j.Lambda,
		Digits:       j.Digits,
		Threshold:    j.Threshold,
		ChargeSeed:   j.ChargeSeed,
	}
	if err := r.normalize(Config{MaxPoints: -1}.withDefaults()); err != nil {
		return nil, err
	}
	return r, nil
}
