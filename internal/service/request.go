package service

import (
	"fmt"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
	"graphpipe/internal/synth"
)

// MaxMiniBatch bounds a request's mini-batch, explicit or defaulted. It is
// twice the largest paper pairing (CANDLE-Uno at 32 devices, 32,768). The
// bound keeps every planner's work finite before it starts: a stage's task
// list holds 2·B/b entries, and a mini-batch near the int range would make
// the candidate search and the task allocation overflow.
const MaxMiniBatch = 1 << 16

// A Request is one planning question posed to the service: which model,
// on how many devices, under which planner and result-relevant options.
// It is the request-side mirror of a strategy.Artifact's identity fields,
// and canonicalization + Fingerprint below define when two requests are
// "the same question" for caching and deduplication purposes.
type Request struct {
	// Model is a models.Build name (e.g. "mmt").
	Model string `json:"model"`
	// Branches overrides the model's branch count (0: model default).
	Branches int `json:"branches,omitempty"`
	// Devices is the cluster size to plan for. Required.
	Devices int `json:"devices"`
	// Topology names the cluster shape: empty or "summit" selects the
	// paper's Summit preset at Devices, "topo:explicit/..." spells a
	// topology out in full, and any other "topo:" name is a seeded synth
	// topology family. Canonicalization resolves every spelling to the
	// topology's canonical spec string ("" for the Summit default), so all
	// spellings of one cluster share a fingerprint.
	Topology string `json:"topology,omitempty"`
	// MiniBatch is B; 0 selects the paper's default pairing for the
	// model and device count (resolved during canonicalization, so the
	// explicit and defaulted spellings share a fingerprint).
	MiniBatch int `json:"mini_batch,omitempty"`
	// Planner is a planner-registry name; empty selects "graphpipe".
	Planner string `json:"planner,omitempty"`
	// Options carries the result-relevant planning knobs.
	Options strategy.PlanOptions `json:"options,omitempty"`
}

// canonicalize validates the request and resolves its defaults — planner
// name and mini-batch — returning the normalized request plus the built
// model graph (the expensive half of validation, reused by the planning
// job). Errors wrap ErrBadRequest: they are the caller's fault, not the
// service's, and the HTTP layer maps them to 400s.
//
// Canonicalization is what makes the fingerprint honest: two spellings of
// the same question ({"mini_batch":0} and the explicit paper default)
// normalize to identical requests before hashing. Branches and the
// PlanOptions are recorded literally — zero always means "default", and
// the service cannot know whether an explicit value happens to equal a
// planner's private default.
func (r Request) canonicalize() (Request, *graph.Graph, error) {
	if r.Model == "" {
		return r, nil, fmt.Errorf("%w: missing model (known: %v)", ErrBadRequest, models.Names())
	}
	if r.Devices <= 0 || r.Devices > cluster.MaxSpecDevices {
		return r, nil, fmt.Errorf("%w: devices must be in [1, %d], got %d",
			ErrBadRequest, cluster.MaxSpecDevices, r.Devices)
	}
	if r.Branches < 0 || r.MiniBatch < 0 {
		return r, nil, fmt.Errorf("%w: negative branches (%d) or mini-batch (%d)",
			ErrBadRequest, r.Branches, r.MiniBatch)
	}
	if r.MiniBatch > MaxMiniBatch {
		return r, nil, fmt.Errorf("%w: mini-batch %d exceeds the limit %d",
			ErrBadRequest, r.MiniBatch, MaxMiniBatch)
	}
	if r.Options.ForcedMicroBatch < 0 || r.Options.MaxMicroBatch < 0 {
		// The planners read negative option values as "unset"; admitting
		// them here would cache a duplicate plan under a fingerprint whose
		// recorded options misdescribe the search that produced it.
		return r, nil, fmt.Errorf("%w: negative micro-batch options (forced %d, max %d)",
			ErrBadRequest, r.Options.ForcedMicroBatch, r.Options.MaxMicroBatch)
	}
	if r.Planner == "" {
		r.Planner = "graphpipe"
	}
	if _, err := planner.Get(r.Planner); err != nil {
		return r, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	topo, err := models.Topology(r.Topology, r.Devices)
	if err != nil {
		return r, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Canonical() returns "" for the Summit default, so the preset name,
	// the empty string, and the fully explicit Summit spelling all
	// normalize — and therefore fingerprint — identically.
	r.Topology = topo.Canonical()
	g, defBatch, err := models.Build(r.Model, r.Branches, r.Devices)
	if err != nil {
		return r, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if synth.IsSpec(r.Model) {
		// Normalize to the resolved spec (the graph's name) before
		// hashing, like the zero mini-batch below: the shorthand and the
		// fully spelled spec are the same planning question, and the
		// artifact's metadata must pin every derived knob so it rebuilds
		// this exact graph even if seed-derivation ranges change later.
		r.Model = g.Name()
	}
	if r.MiniBatch == 0 {
		if defBatch > MaxMiniBatch {
			return r, nil, fmt.Errorf("%w: default mini-batch %d at %d devices exceeds the limit %d; set mini_batch",
				ErrBadRequest, defBatch, r.Devices, MaxMiniBatch)
		}
		r.MiniBatch = defBatch
	}
	if f := r.Options.ForcedMicroBatch; f > 0 && r.MiniBatch%f != 0 {
		// Every planner would reject this search as infeasible; catching
		// it here turns a 500-after-admission into an immediate 400.
		return r, nil, fmt.Errorf("%w: forced micro-batch %d does not divide mini-batch %d",
			ErrBadRequest, f, r.MiniBatch)
	}
	return r, g, nil
}

// skeleton renders the request as an artifact carrying only identity
// fields. It exists so the fingerprint has exactly one implementation —
// strategy.Artifact.Fingerprint — and the CLI (hashing a finished
// artifact) and the daemon (hashing an incoming request before planning)
// cannot drift apart.
func (r Request) skeleton() *strategy.Artifact {
	return &strategy.Artifact{
		Model:     r.Model,
		Branches:  r.Branches,
		Devices:   r.Devices,
		Topology:  r.Topology,
		MiniBatch: r.MiniBatch,
		Planner:   strategy.PlannerMeta{Name: r.Planner},
		Options:   r.Options,
	}
}

// Fingerprint returns the content fingerprint of a canonicalized request.
// Only canonicalized requests hash meaningfully: an unresolved zero
// mini-batch would fingerprint differently from its resolved default.
func (r Request) Fingerprint() string {
	return r.skeleton().Fingerprint()
}

// CanonicalFingerprint canonicalizes the request and returns its content
// fingerprint without planning anything. It is the fleet route key: the
// router shards on it, and because canonicalization resolves synth
// seed-shorthand specs to their full spelling and zero mini-batches to
// the paper default before hashing, every spelling of one planning
// question lands on the same shard. Errors wrap ErrBadRequest exactly as
// Plan would, so the router can reject malformed requests without
// forwarding them.
func (r Request) CanonicalFingerprint() (string, error) {
	creq, _, err := r.canonicalize()
	if err != nil {
		return "", err
	}
	return creq.Fingerprint(), nil
}
