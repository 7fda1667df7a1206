package experiment

import (
	"errors"
	"fmt"

	"repro/internal/baseline/tkernel"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
)

// runSenSmart deploys one task per program on a fresh SenSmart node built
// with cfg, boots it, and runs until every task exits. Hitting limit first
// is an error.
func runSenSmart(cfg kernel.Config, limit uint64, programs ...*image.Program) (*core.System, error) {
	sys := core.NewSystem(core.WithKernelConfig(cfg))
	for _, p := range programs {
		if _, err := sys.Deploy(p); err != nil {
			return nil, fmt.Errorf("deploy %s: %w", p.Name, err)
		}
	}
	if err := sys.Boot(); err != nil {
		return nil, err
	}
	if err := sys.Run(limit); err != nil {
		return nil, err
	}
	if !sys.Done() {
		return nil, fmt.Errorf("experiment: %d-cycle limit hit before completion", limit)
	}
	return sys, nil
}

// fillNode deploys prog(0), prog(1), ... on a fresh SenSmart node built with
// cfg until the kernel refuses one with kernel.ErrNoMemory, then boots the
// node and runs it for budget cycles (it stays unbooted when nothing fit).
// Every other error, from building, rewriting or admitting a program, is
// returned, so a failure never reads as "memory full".
func fillNode(cfg kernel.Config, budget uint64, prog func(i int) (*image.Program, error)) (*core.System, error) {
	sys := core.NewSystem(core.WithKernelConfig(cfg))
	for i := 0; ; i++ {
		p, err := prog(i)
		if err != nil {
			return nil, err
		}
		if _, err := sys.Deploy(p); errors.Is(err, kernel.ErrNoMemory) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("deploy %s: %w", p.Name, err)
		}
	}
	if len(sys.Tasks()) == 0 {
		return sys, nil
	}
	if err := sys.Boot(); err != nil {
		return nil, err
	}
	return sys, sys.Run(budget)
}

// runTKernel naturalizes prog for the t-kernel baseline, loads it on m and
// runs it until it exits. With warmup the one-time on-node rewriting delay
// is charged first (Figure 6a); without it the run is the steady state of
// Figure 5.
func runTKernel(m *mcu.Machine, prog *image.Program, warmup bool, limit uint64) error {
	img, err := tkernel.Naturalize(prog)
	if err != nil {
		return err
	}
	rt, err := tkernel.NewRuntime(m, img)
	if err != nil {
		return err
	}
	if warmup {
		rt.Boot()
	}
	if err := rt.Run(limit); err != nil {
		return err
	}
	if !rt.Exited() {
		return fmt.Errorf("experiment: t-kernel run of %s did not finish", prog.Name)
	}
	return nil
}
