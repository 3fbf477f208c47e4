package compose

import (
	"context"
	"fmt"

	"buffy/internal/buffer"
	"buffy/internal/ir"
	"buffy/internal/lang/typecheck"
	"buffy/internal/qm"
	"buffy/internal/smt/term"
)

// CCACParams parameterizes the Figure 7 composition.
type CCACParams struct {
	C  int64 // path server rate (packets per step)
	B  int64 // token-bucket burst
	IW int64 // congestion control initial window
	K  int   // path server queue capacity (loss happens past it)
	T  int   // time horizon
	// D is the fixed delay in steps on the ack path (default 1),
	// realized by chaining D instances of the one-step delay program.
	D int
	// Model selects the buffer precision level; nil means count — the
	// CCAC-appropriate abstraction (§3: CCAC "uses a single integer
	// variable to represent the number of bytes present in the queue").
	Model buffer.Model
}

// CCACSystem is the composed CCA + path + delay model with its
// query-relevant handles.
type CCACSystem struct {
	Sys   *System
	AIMD  *ir.Machine
	Path  *ir.Machine
	Delay []*ir.Machine // the delay stages, ack-path order
}

// BuildCCAC assembles the CCAC model from the three Buffy programs in qm:
//
//	aimd.net --> path.pin; path.pab --> delay.din; delay.dout --> aimd.acks
//
// The CCA's app buffer is the only external input (application data).
// The system is unrolled under ctx (see System.Run).
func BuildCCAC(ctx context.Context, b *term.Builder, p CCACParams) (*CCACSystem, error) {
	if p.Model == nil {
		p.Model = buffer.CountModel{}
	}
	sys := NewSystem(b)
	aimdInfo, err := qm.Load(qm.AIMDSrc)
	if err != nil {
		return nil, fmt.Errorf("ccac: %w", err)
	}
	pathInfo, err := qm.Load(qm.PathServerSrc)
	if err != nil {
		return nil, fmt.Errorf("ccac: %w", err)
	}
	delayInfo, err := qm.Load(qm.DelaySrc)
	if err != nil {
		return nil, fmt.Errorf("ccac: %w", err)
	}

	big := p.T*4 + 16 // roomy capacity for non-loss buffers
	aimd, err := sys.Add(aimdInfo, ir.Options{
		Model: p.Model, T: p.T,
		Params: map[string]int64{"IW": p.IW},
		Bounds: typecheck.Bounds{BufferCap: big, OutBufferCap: big, ArrivalsPerStep: 2},
	})
	if err != nil {
		return nil, err
	}
	path, err := sys.Add(pathInfo, ir.Options{
		Model: p.Model, T: p.T,
		Params: map[string]int64{"C": p.C, "B": p.B},
		// BufferCap pins the lossy bottleneck queue.
		Bounds: typecheck.Bounds{BufferCap: p.K, OutBufferCap: big},
	})
	if err != nil {
		return nil, err
	}
	if p.D <= 0 {
		p.D = 1
	}
	var delays []*ir.Machine
	var stageNames []string
	for i := 0; i < p.D; i++ {
		name := "delay"
		if p.D > 1 {
			name = fmt.Sprintf("delay%d", i+1)
		}
		d, err := sys.AddInstance(name, delayInfo, ir.Options{
			Model: p.Model, T: p.T,
			Bounds: typecheck.Bounds{BufferCap: big, OutBufferCap: big},
		})
		if err != nil {
			return nil, err
		}
		delays = append(delays, d)
		stageNames = append(stageNames, name)
	}
	if err := sys.Connect("aimd", "net", "path", "pin"); err != nil {
		return nil, err
	}
	if err := sys.Connect("path", "pab", stageNames[0], "din"); err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(stageNames); i++ {
		if err := sys.Connect(stageNames[i], "dout", stageNames[i+1], "din"); err != nil {
			return nil, err
		}
	}
	if err := sys.Connect(stageNames[len(stageNames)-1], "dout", "aimd", "acks"); err != nil {
		return nil, err
	}
	if err := sys.Run(ctx, p.T); err != nil {
		return nil, err
	}
	return &CCACSystem{Sys: sys, AIMD: aimd, Path: path, Delay: delays}, nil
}

// Loss returns the term "packets were dropped at the bottleneck queue" —
// the CCAC case study's query (§6.2: "the query (occurrence of loss)").
func (c *CCACSystem) Loss(b *term.Builder) *term.Term {
	dropped := c.Path.Buffers()["pin"].Dropped()
	return b.Lt(b.IntConst(0), dropped)
}

// Delivered returns the path server's cumulative delivered-packet monitor.
func (c *CCACSystem) Delivered() *term.Term {
	return c.Path.Var("delivered")
}
