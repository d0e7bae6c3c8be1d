package core

import (
	"math"
	"strconv"

	"repro/internal/fault"
	"repro/internal/heat"
	"repro/internal/units"
)

// canonical.go is the allocation-free body of the canonical form: a
// strconv-based appender producing byte-for-byte the output of the
// fmt.Fprintf formulation it replaced (digest_test.go keeps the fmt
// version as a reference and asserts equality over varied configs).
// Campaign expansion digests thousands of specs per submit, and each
// fmt verb boxes its operands; appending into one reused buffer makes
// the canonical form cost no allocations at all.

// AppendCanonical appends cfg's canonical form — the exact bytes
// CanonicalDigest hashes — to dst and returns the extended slice.
func (cfg AppConfig) AppendCanonical(dst []byte) []byte {
	b := append(dst, "v1\n"...)
	// heat.Params is a flat value struct (Sources are values too), so
	// its %+v form is deterministic and spelled out field by field
	// below.
	b = append(b, "heat:"...)
	b = appendHeatParams(b, cfg.Heat)
	b = append(b, "\nsubsteps:"...)
	b = strconv.AppendInt(b, int64(cfg.SubstepsPerIteration), 10)
	b = append(b, " real:"...)
	b = strconv.AppendInt(b, int64(cfg.RealSubsteps), 10)
	b = append(b, "\npayload ckpt:"...)
	b = strconv.AppendInt(b, int64(cfg.CheckpointPayload), 10)
	b = append(b, " insitu:"...)
	b = strconv.AppendInt(b, int64(cfg.InsituPayload), 10)
	// Render holds a *Colormap; hash the remaining fields explicitly so
	// no pointer address leaks into the digest.
	b = append(b, "\nrender:"...)
	b = strconv.AppendInt(b, int64(cfg.Render.Width), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(cfg.Render.Height), 10)
	b = append(b, " lo:"...)
	b = appendG(b, cfg.Render.Lo)
	b = append(b, " hi:"...)
	b = appendG(b, cfg.Render.Hi)
	b = append(b, " iso:["...)
	for i, v := range cfg.Render.Isolines {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendG(b, v)
	}
	b = append(b, "] isocolor:{"...)
	c := cfg.Render.IsolineColor
	b = strconv.AppendUint(b, uint64(c.R), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(c.G), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(c.B), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(c.A), 10)
	b = append(b, "} colormap:"...)
	b = strconv.AppendBool(b, cfg.Render.Colormap != nil)
	b = append(b, "\nckptpolicy:"...)
	b = strconv.AppendInt(b, int64(cfg.CheckpointPolicy), 10)
	b = append(b, "\nknobs nosync:"...)
	b = strconv.AppendBool(b, cfg.InsituNoSync)
	b = append(b, " compress:"...)
	b = strconv.AppendBool(b, cfg.CompressInsitu)
	b = append(b, " cinema:"...)
	b = strconv.AppendInt(b, int64(cfg.CinemaVariants), 10)
	b = append(b, " async:"...)
	b = strconv.AppendBool(b, cfg.AsyncCheckpoint)
	b = append(b, " retain:"...)
	b = strconv.AppendBool(b, cfg.RetainFrames)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		b = append(b, "\nfaults:"...)
		b = appendFaultConfig(b, *cfg.Faults)
	} else {
		b = append(b, "\nfaults:off"...)
	}
	r := cfg.Retry.WithDefaults()
	b = append(b, "\nretry:{MaxAttempts:"...)
	b = strconv.AppendInt(b, int64(r.MaxAttempts), 10)
	b = append(b, " Backoff:"...)
	b = appendSeconds(b, r.Backoff)
	// Extension points: presence only (see package comment above).
	b = append(b, "}\ncustom sim:"...)
	b = strconv.AppendBool(b, cfg.NewSimulator != nil)
	b = append(b, " store:"...)
	b = strconv.AppendBool(b, cfg.Store != nil)
	return append(b, '\n')
}

// appendG appends f the way fmt's %g (and %v for float64) prints it:
// shortest round-trip representation.
func appendG(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendSeconds appends s the way fmt's %v prints a units.Seconds —
// via its String method (auto-scaled unit, one decimal, trailing ".0"
// trimmed) — without materializing the string.
func appendSeconds(b []byte, s units.Seconds) []byte {
	v := float64(s)
	av := math.Abs(v)
	switch {
	case av >= 1 || av == 0:
		return appendTrimUnit(b, v, "s")
	case av >= 1e-3:
		return appendTrimUnit(b, v*1e3, "ms")
	case av >= 1e-6:
		return appendTrimUnit(b, v*1e6, "us")
	default:
		return appendTrimUnit(b, v*1e9, "ns")
	}
}

func appendTrimUnit(b []byte, v float64, unit string) []byte {
	b = strconv.AppendFloat(b, v, 'f', 1, 64)
	if n := len(b); n > 2 && b[n-2] == '.' && b[n-1] == '0' {
		b = b[:n-2]
	}
	return append(b, unit...)
}

// heatWorkersV1 is the v1 token of the removed heat.Params.Workers
// field, still written so result-store keys do not change.
const heatWorkersV1 = " Workers:0"

// appendHeatParams appends the %+v form of a heat.Params value, as of
// canonical form v1.
func appendHeatParams(b []byte, p heat.Params) []byte {
	b = append(b, "{NX:"...)
	b = strconv.AppendInt(b, int64(p.NX), 10)
	b = append(b, " NY:"...)
	b = strconv.AppendInt(b, int64(p.NY), 10)
	b = append(b, " Alpha:"...)
	b = appendG(b, p.Alpha)
	b = append(b, " DX:"...)
	b = appendG(b, p.DX)
	b = append(b, " DY:"...)
	b = appendG(b, p.DY)
	b = append(b, " DT:"...)
	b = appendG(b, p.DT)
	b = append(b, " Boundary:"...)
	b = strconv.AppendInt(b, int64(p.Boundary), 10)
	b = append(b, " BoundaryTemp:"...)
	b = appendG(b, p.BoundaryTemp)
	b = append(b, " InitialTemp:"...)
	b = appendG(b, p.InitialTemp)
	b = append(b, heatWorkersV1...)
	b = append(b, " Sources:["...)
	for i, s := range p.Sources {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, "{X0:"...)
		b = strconv.AppendInt(b, int64(s.X0), 10)
		b = append(b, " Y0:"...)
		b = strconv.AppendInt(b, int64(s.Y0), 10)
		b = append(b, " X1:"...)
		b = strconv.AppendInt(b, int64(s.X1), 10)
		b = append(b, " Y1:"...)
		b = strconv.AppendInt(b, int64(s.Y1), 10)
		b = append(b, " Temp:"...)
		b = appendG(b, s.Temp)
		b = append(b, " PeriodSteps:"...)
		b = strconv.AppendUint(b, s.PeriodSteps, 10)
		b = append(b, " Duty:"...)
		b = appendG(b, s.Duty)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendFaultConfig appends the %+v form of a fault.Config value.
func appendFaultConfig(b []byte, f fault.Config) []byte {
	b = append(b, "{Seed:"...)
	b = strconv.AppendUint(b, f.Seed, 10)
	b = append(b, " BitRot:"...)
	b = appendG(b, f.BitRot)
	b = append(b, " ReadErr:"...)
	b = appendG(b, f.ReadErr)
	b = append(b, " WriteErr:"...)
	b = appendG(b, f.WriteErr)
	b = append(b, " Latency:"...)
	b = appendG(b, f.Latency)
	b = append(b, " Spike:"...)
	b = appendSeconds(b, f.Spike)
	b = append(b, " Drop:"...)
	b = appendG(b, f.Drop)
	b = append(b, " DropTimeout:"...)
	b = appendSeconds(b, f.DropTimeout)
	return append(b, '}')
}
