package sim

import "repro/internal/core"

// QueueSnapshot reports the instantaneous occupancy of one central queue.
type QueueSnapshot struct {
	Node  int32
	Class core.QueueClass
	Len   int
	Cap   int
}

// InNetwork counts the packets currently inside the buffered engine: the
// kernel's queues plus the link buffers.
func (e *Engine) InNetwork() int {
	total := e.kernel.InNetwork()
	for _, f := range e.outFull {
		if f != 0 {
			total++
		}
	}
	for _, f := range e.inFull {
		if f != 0 {
			total++
		}
	}
	return total
}
