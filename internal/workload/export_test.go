package workload

// Stop halts all future emissions from this generator.
func (g *Gen) Stop() { g.stopped = true }

// Len returns the number of flows.
func (fs *FlowSet) Len() int { return len(fs.flows) }
