package trace

import (
	"testing"

	"repro/internal/telemetry"
)

func TestRecorderMaterializesStream(t *testing.T) {
	prof := NewProfile("run")
	rec := NewRecorder(prof)
	if rec.Profile() != prof {
		t.Fatal("Profile() does not return the materialized profile")
	}
	bus := telemetry.NewBus(rec)

	// Definitions materialize series in definition order (CSV columns).
	bus.Emit(telemetry.Event{Kind: telemetry.KindSeriesDefine, Source: "system", Unit: "W"})
	bus.Emit(telemetry.Event{Kind: telemetry.KindSeriesDefine, Source: "rapl.PKG", Unit: "W"})
	bus.Emit(telemetry.Event{Kind: telemetry.KindSeriesDefine, Source: "system", Unit: "W"}) // duplicate: ignored

	bus.Emit(telemetry.Event{Kind: telemetry.KindEnergySample, Source: "system", At: 1, Value: 104.5})
	bus.Emit(telemetry.Event{Kind: telemetry.KindEnergySample, Source: "rapl.PKG", At: 1, Value: 42})
	bus.Emit(telemetry.Event{Kind: telemetry.KindEnergySample, Source: "system", At: 2, Value: 143})
	// Samples from undeclared sources are dropped, not materialized.
	bus.Emit(telemetry.Event{Kind: telemetry.KindEnergySample, Source: "ghost", At: 2, Value: 1})

	// Stage events are the stage ledger's to fold, not the recorder's.
	bus.Emit(telemetry.Event{Kind: telemetry.KindStageDone, Stage: "simulation", Start: 0, End: 2})

	if n := len(prof.Series); n != 2 {
		t.Fatalf("profile has %d series, want 2 (duplicate define ignored, ghost dropped)", n)
	}
	if prof.Series[0].Name != "system" || prof.Series[1].Name != "rapl.PKG" {
		t.Errorf("series order = %q,%q, want definition order system,rapl.PKG",
			prof.Series[0].Name, prof.Series[1].Name)
	}
	sys := prof.SeriesByName("system")
	if sys.Len() != 2 || sys.At(1).V != 143 {
		t.Errorf("system series misrecorded: len=%d", sys.Len())
	}
	if prof.SeriesByName("ghost") != nil {
		t.Error("undeclared source materialized a series")
	}
	if len(prof.Phases) != 0 {
		t.Errorf("phases = %v, want none: the recorder marks no phases", prof.Phases)
	}
}
