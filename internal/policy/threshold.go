package policy

import (
	"loadmax/internal/core"
)

// SpecThreshold is the canonical spec of the paper's Algorithm 1.
const SpecThreshold = "threshold"

// Threshold adapts core.Threshold — the paper's deterministic
// immediate-commitment algorithm — to the AdmissionPolicy contract. All
// scheduling behavior lives in core; this wrapper only reshapes the
// state round-trip into the policy-stamped State envelope.
type Threshold struct {
	*core.Threshold
}

var _ AdmissionPolicy = (*Threshold)(nil)

// NewThreshold builds the Algorithm-1 policy for (m, ε), forwarding any
// core options (engine selection, tracer, forced phase).
func NewThreshold(m int, eps float64, opts ...core.Option) (*Threshold, error) {
	th, err := core.New(m, eps, opts...)
	if err != nil {
		return nil, err
	}
	return &Threshold{Threshold: th}, nil
}

// ExportState implements AdmissionPolicy: the blob is core.State
// verbatim.
func (t *Threshold) ExportState() (State, error) {
	return marshalState(SpecThreshold, t.Threshold.ExportState())
}

// ImportState implements AdmissionPolicy.
func (t *Threshold) ImportState(s State) error {
	var st core.State
	if err := unmarshalState(s, SpecThreshold, &st); err != nil {
		return err
	}
	return t.Threshold.ImportState(st)
}

// ThresholdBuilder returns the Builder for Algorithm 1.
func ThresholdBuilder() Builder {
	return Builder{
		Spec: SpecThreshold,
		New: func(m int, eps float64) (AdmissionPolicy, error) {
			return NewThreshold(m, eps)
		},
	}
}
