package core

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/ocean"
	"repro/internal/viz"
)

// presets.go resolves the short device and application names the CLI
// and the service daemon both accept into concrete platforms and
// configs. Keeping the resolution here means a pipeline submitted as
// {"pipeline":"insitu","device":"ssd","app":"ocean"} over HTTP runs
// the exact machine a `greenviz -pipeline insitu -device ssd -app
// ocean` invocation runs.

// DeviceFlags lists the storage-device short names PlatformByFlag
// resolves, in menu order.
func DeviceFlags() []string { return []string{"hdd", "ssd", "raid4", "nvram"} }

// PlatformByFlag resolves a device short name to the paper's platform
// with that storage stack: the calibrated Sandy Bridge node with its
// HDD (the default), a SATA SSD, a RAID-0 stripe over 4 HDDs ("raid4"
// counts members; there is no parity), or a PCIe NVRAM burst buffer.
// An empty name selects the default HDD.
func PlatformByFlag(device string) (node.Profile, error) {
	switch device {
	case "", "hdd":
		return node.SandyBridge(), nil
	case "ssd":
		return node.SandyBridgeSSD(), nil
	case "raid4":
		return node.SandyBridgeRAID(4), nil
	case "nvram":
		return node.SandyBridgeNVRAM(), nil
	}
	return node.Profile{}, fmt.Errorf("core: unknown device %q (valid: %v)", device, DeviceFlags())
}

// AppFlags lists the proxy-application short names ConfigureApp
// accepts, in menu order.
func AppFlags() []string { return []string{"heat", "ocean"} }

// ConfigureApp wires the named proxy application into cfg: "heat" (or
// empty) keeps the paper's heat-transfer solver; "ocean" installs the
// shallow-water solver with its diverging colormap and zero-level
// isoline.
func ConfigureApp(cfg *AppConfig, app string) error {
	switch app {
	case "", "heat":
		return nil
	case "ocean":
		cfg.NewSimulator = func() Simulator { return ocean.NewSolver(ocean.DefaultParams()) }
		cfg.Render.Colormap = viz.CoolWarm()
		cfg.Render.Isolines = []float64{0}
		return nil
	}
	return fmt.Errorf("core: unknown app %q (valid: %v)", app, AppFlags())
}
