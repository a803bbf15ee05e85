package p4

import "repro/internal/checkpoint"

// Checkpoint walks the µP4 instance's persistent mutable state. The
// header scratch frames are zeroed at every Apply, so only the telemetry
// report sequence survives a slot boundary; everything else (switch ID,
// handlers) is configuration rebuilt by the load path's construction.
// The program's externs are walked by the owning switch.
func (inst *Instance) Checkpoint(c *checkpoint.Codec) {
	c.U32(&inst.reportSeq)
}
