package main

import (
	"fmt"
	"os"
	"time"

	"ccahydro/internal/cca"
	"ccahydro/internal/ckpt"
	"ccahydro/internal/components"
	"ccahydro/internal/core"
	"ccahydro/internal/mpi"
	"ccahydro/internal/serve"
)

// The run server builds its frameworks internally and attaches no
// observability session, so a traced serve_mix run times the
// checkpoint layer on the side: it runs serve_mix's checkpointing job
// shapes (the small flame and shock) through the same assembly and
// checkpoint wiring the scheduler uses, with a timing decorator on the
// driver's checkpoint wire, then extends each run from its last
// checkpoint the way a warm start does.

// timedCheckpoint forwards the checkpoint port and times every call.
type timedCheckpoint struct {
	svc             cca.Services
	saveS, restoreS float64
	saves, restores int
}

const (
	timedCkptClass    = "perfbench.TimedCheckpoint"
	timedCkptInstance = "perfbenchCkpt"
)

func (t *timedCheckpoint) SetServices(svc cca.Services) error {
	t.svc = svc
	if err := svc.RegisterUsesPort("inner", components.CheckpointPortType); err != nil {
		return err
	}
	return svc.AddProvidesPort(components.CheckpointPort(t), "checkpoint", components.CheckpointPortType)
}

func (t *timedCheckpoint) inner() components.CheckpointPort {
	p, err := t.svc.GetPort("inner")
	if err != nil {
		panic(err)
	}
	t.svc.ReleasePort("inner")
	return p.(components.CheckpointPort)
}

func (t *timedCheckpoint) Restore(driver string) (*ckpt.Meta, error) {
	t0 := time.Now()
	m, err := t.inner().Restore(driver)
	if m != nil {
		t.restoreS += time.Since(t0).Seconds()
		t.restores++
	}
	return m, err
}

func (t *timedCheckpoint) SaveIfDue(meta ckpt.Meta) error {
	t0 := time.Now()
	err := t.inner().SaveIfDue(meta)
	t.saveS += time.Since(t0).Seconds()
	t.saves++
	return err
}

// Flush completes the asynchronous shard writes, so its time is part
// of the cost of saving.
func (t *timedCheckpoint) Flush() error {
	t0 := time.Now()
	err := t.inner().Flush()
	t.saveS += time.Since(t0).Seconds()
	return err
}

type ckptProbe struct{ saveS, restoreS float64 }

// probeCheckpoint returns the mean seconds per checkpoint save and per
// restore over serve_mix's checkpointing job shapes.
func probeCheckpoint(scratch string) (*ckptProbe, error) {
	repo := components.NewRepository()
	repo.Register(timedCkptClass, func() cca.Component { return &timedCheckpoint{} })
	var total timedCheckpoint
	for _, pair := range [][2]serve.Spec{
		{flameJob(1800, 4), flameJob(1800, 6)},
		{shockJob(1.0, 8), shockJob(1.0, 12)},
	} {
		dir, err := os.MkdirTemp(scratch, "ckpt-")
		if err != nil {
			return nil, err
		}
		for i, sp := range pair {
			restore := ""
			if i == 1 {
				restore = dir
			}
			var tc *timedCheckpoint
			res := cca.RunSCMD(1, mpi.ZeroModel, repo, func(f *cca.Framework, comm *mpi.Comm) error {
				req := sp.Request()
				if err := core.AssembleRequest(f, req); err != nil {
					return err
				}
				if err := f.Instantiate(timedCkptClass, timedCkptInstance); err != nil {
					return err
				}
				run := core.RunInstance(req)
				if err := f.Connect(run, "checkpoint", timedCkptInstance, "checkpoint"); err != nil {
					return err
				}
				// The decorator's dangling "inner" port is wired to the
				// checkpoint component like any other checkpoint user.
				if err := core.WireCheckpointOpts(f, core.CheckpointOptions{Every: 1, Dir: dir, Restore: restore}); err != nil {
					return err
				}
				c, err := f.Lookup(timedCkptInstance)
				if err != nil {
					return err
				}
				tc = c.(*timedCheckpoint)
				return f.Go(run, "go")
			})
			if err := res.Err(); err != nil {
				return nil, fmt.Errorf("checkpoint probe: %w", err)
			}
			if i == 1 && tc.restores != 1 {
				return nil, fmt.Errorf("checkpoint probe: %s extension did not restore", sp.Problem)
			}
			total.saveS += tc.saveS
			total.saves += tc.saves
			total.restoreS += tc.restoreS
			total.restores += tc.restores
		}
		os.RemoveAll(dir)
	}
	return &ckptProbe{saveS: total.saveS / float64(total.saves), restoreS: total.restoreS / float64(total.restores)}, nil
}
