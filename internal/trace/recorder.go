package trace

import "repro/internal/telemetry"

// Recorder materializes a telemetry stream into a Profile: series
// definitions become Profile series (in definition order — the CSV
// column order), and energy samples append to their series. It is the
// bridge between the event core and the trace analyses (CSV export,
// ASCII plots, phase means) that predate it. It ignores stage events:
// the stage ledger folds those, and a profile's phases are marked by
// the code that times them.
//
// Attach the recorder to the run's bus before constructing the
// instruments that define series, so no definition is missed.
type Recorder struct {
	profile *Profile
	series  map[string]*Series
}

// NewRecorder returns a recorder materializing into p.
func NewRecorder(p *Profile) *Recorder {
	return &Recorder{profile: p, series: map[string]*Series{}}
}

// Profile returns the profile being materialized.
func (r *Recorder) Profile() *Profile { return r.profile }

// Consume implements telemetry.Consumer.
func (r *Recorder) Consume(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindSeriesDefine:
		if _, ok := r.series[ev.Source]; !ok {
			r.series[ev.Source] = r.profile.AddSeries(ev.Source, ev.Unit)
		}
	case telemetry.KindEnergySample:
		// Samples from sources that never defined themselves are dropped:
		// the recorder materializes declared instruments, not ad-hoc data.
		if s := r.series[ev.Source]; s != nil {
			s.Append(ev.At, ev.Value)
		}
	}
}
