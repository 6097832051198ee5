package sim

// Server models a FIFO service resource with one or more identical units
// (e.g. a NIC processing unit pool, a PCIe PIO engine, a wire). Work is
// submitted with a service time; the server assigns it to the earliest
// available unit, preserving submission order.
type Server struct {
	eng    *Engine
	freeAt []Time
	busy   Time // accumulated busy time across units, for utilization
	jobs   uint64
}

// NewServer returns a server with the given number of units on eng.
// units must be >= 1.
func NewServer(eng *Engine, units int) *Server {
	if units < 1 {
		panic("sim: NewServer requires units >= 1")
	}
	return &Server{eng: eng, freeAt: make([]Time, units)}
}

// Units returns the number of service units.
func (s *Server) Units() int { return len(s.freeAt) }

// Jobs returns the number of jobs submitted so far.
func (s *Server) Jobs() uint64 { return s.jobs }

// BusyTime returns the total busy time accumulated across all units.
func (s *Server) BusyTime() Time { return s.busy }

// Utilization reports mean per-unit utilization over [0, now].
func (s *Server) Utilization() float64 {
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(s.busy) / float64(now) / float64(len(s.freeAt))
}

// Submit enqueues a job with the given service time. done (if non-nil)
// runs when service completes and receives the completion time.
// Submit returns the scheduled completion time.
//
//herd:hotpath
func (s *Server) Submit(service Time, done func(end Time)) Time {
	end := s.reserve(service)
	if done != nil {
		s.eng.schedule(event{at: end, done: done})
	}
	return end
}

// SubmitThen enqueues a job like Submit, then delays its completion:
// done runs delay after service ends, without occupying the server for
// it (a pipelined latency, such as a DMA round trip or a link's
// propagation). It schedules exactly the events, in exactly the order,
// of a Submit whose completion calls After(delay, ...): one event at
// the service end and, when that runs, a second at end+delay whose
// sequence number is stamped then. Scheduling straight at end+delay
// would stamp it earlier and reorder same-instant ties. Both events
// run even when done is nil. SubmitThen returns the service end.
//
//herd:hotpath
func (s *Server) SubmitThen(service, delay Time, done func(at Time)) Time {
	if done == nil {
		done = nop
	}
	if delay < 0 {
		delay = 0
	}
	end := s.reserve(service)
	s.eng.schedule(event{at: end, done: done, then: delay + 1})
	return end
}

// nop is SubmitThen's stand-in for a nil completion.
func nop(Time) {}

// reserve books service time on the unit that frees earliest (FIFO
// across the pool) and returns the job's end.
//
//herd:hotpath
func (s *Server) reserve(service Time) Time {
	if service < 0 {
		service = 0
	}
	best := 0
	for i := 1; i < len(s.freeAt); i++ {
		if s.freeAt[i] < s.freeAt[best] {
			best = i
		}
	}
	start := s.freeAt[best]
	if now := s.eng.Now(); start < now {
		start = now
	}
	end := start + service
	s.freeAt[best] = end
	s.busy += service
	s.jobs++
	return end
}

// NextFree returns the earliest time at which any unit is available.
func (s *Server) NextFree() Time {
	best := s.freeAt[0]
	for _, t := range s.freeAt[1:] {
		if t < best {
			best = t
		}
	}
	if now := s.eng.Now(); best < now {
		best = now
	}
	return best
}

// Backlog returns how far the most-loaded unit's schedule extends past now.
func (s *Server) Backlog() Time {
	worst := s.freeAt[0]
	for _, t := range s.freeAt[1:] {
		if t > worst {
			worst = t
		}
	}
	if b := worst - s.eng.Now(); b > 0 {
		return b
	}
	return 0
}
