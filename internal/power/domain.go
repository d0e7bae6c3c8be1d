// Package power is the power-accounting bus of the simulated node.
//
// Every physical subsystem (CPU package, DRAM, disk, rest-of-system)
// owns a Domain. A domain's power level is piecewise constant over
// virtual time: models call SetLevel whenever activity changes, and the
// domain integrates energy exactly between changes. Samplers (the RAPL
// emulation, the Wattsup meter) read instantaneous power and cumulative
// energy without disturbing the integration. Wall power is the plain
// sum of the domains.
//
// The models turn activity into levels: the CPU model runs at one
// nominal frequency, which only a package power cap throttles (to no
// less than half of it); DRAM power tracks bandwidth; the rest of the
// system adds a fan term that tracks the other domains' draw.
package power

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// Domain tracks one subsystem's power level over virtual time and its
// exactly-integrated cumulative energy.
type Domain struct {
	name    string
	engine  *sim.Engine
	level   units.Watts
	offset  units.Watts  // sum of Add deltas, kept across SetLevel
	since   sim.Time     // when the current level was set
	energy  units.Joules // integrated up to 'since'
	peak    units.Watts
	started sim.Time
}

// NewDomain creates a domain with an initial power level (typically the
// subsystem's static/idle power).
func NewDomain(engine *sim.Engine, name string, initial units.Watts) *Domain {
	if initial < 0 {
		panic(fmt.Sprintf("power: domain %q initial level %v is negative", name, initial))
	}
	return &Domain{
		name:    name,
		engine:  engine,
		level:   initial,
		since:   engine.Now(),
		peak:    initial,
		started: engine.Now(),
	}
}

// Name returns the domain name ("package", "dram", "disk", "rest").
func (d *Domain) Name() string { return d.name }

// settle folds the energy of the interval [since, now] into the
// accumulator and moves since forward.
func (d *Domain) settle() {
	now := d.engine.Now()
	if now > d.since {
		d.energy += units.Energy(d.level, now-d.since)
		d.since = now
	}
}

// SetLevel sets the domain's power level as of the current virtual
// time to w plus the offset Add has stacked on it. A negative
// resulting level panics: power draw is never negative.
func (d *Domain) SetLevel(w units.Watts) { d.setLevel(w + d.offset) }

// Add stacks an additive contribution on the level, such as a meter's
// monitoring overhead or an OS-noise term. It persists across later
// SetLevel calls until a matching Add removes it.
func (d *Domain) Add(delta units.Watts) {
	d.offset += delta
	d.setLevel(d.level + delta)
}

func (d *Domain) setLevel(w units.Watts) {
	if w < 0 {
		panic(fmt.Sprintf("power: domain %q level %v is negative", d.name, w))
	}
	d.settle()
	d.level = w
	if w > d.peak {
		d.peak = w
	}
}

// Level returns the instantaneous power draw.
func (d *Domain) Level() units.Watts { return d.level }

// Energy returns cumulative energy consumed from domain creation up to
// the current virtual time.
func (d *Domain) Energy() units.Joules {
	d.settle()
	return d.energy
}

// Peak returns the highest level ever set.
func (d *Domain) Peak() units.Watts { return d.peak }

// AveragePower returns the mean power since domain creation.
func (d *Domain) AveragePower() units.Watts {
	return units.AveragePower(d.Energy(), d.engine.Now()-d.started)
}

// Bus aggregates domains into the full system. The wall meter reads the
// bus; RAPL reads individual domains. Wall power is the plain sum of
// the domains: the "rest of system" domain already absorbs PSU
// inefficiency, as the paper's attribution does.
type Bus struct {
	engine  *sim.Engine
	domains []*Domain
}

// NewBus creates an empty bus.
func NewBus(engine *sim.Engine) *Bus { return &Bus{engine: engine} }

// Attach registers a domain on the bus and returns it, for chaining.
func (b *Bus) Attach(d *Domain) *Domain {
	b.domains = append(b.domains, d)
	return d
}

// NewDomain creates a domain and attaches it in one step.
func (b *Bus) NewDomain(name string, initial units.Watts) *Domain {
	return b.Attach(NewDomain(b.engine, name, initial))
}

// Domain returns the attached domain with the given name, or nil.
func (b *Bus) Domain(name string) *Domain {
	for _, d := range b.domains {
		if d.name == name {
			return d
		}
	}
	return nil
}

// Domains returns the attached domains in attachment order.
func (b *Bus) Domains() []*Domain { return b.domains }

// SystemPower returns the instantaneous wall power: the sum of all
// domain levels.
func (b *Bus) SystemPower() units.Watts {
	var sum units.Watts
	for _, d := range b.domains {
		sum += d.level
	}
	return sum
}

// SystemEnergy returns cumulative wall energy across all domains.
func (b *Bus) SystemEnergy() units.Joules {
	var sum units.Joules
	for _, d := range b.domains {
		sum += d.Energy()
	}
	return sum
}
