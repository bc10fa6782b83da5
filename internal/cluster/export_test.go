package cluster

// ResetStats zeroes the communication counters, so a test can read what
// the calls after it cost.
func (c *Cluster) ResetStats() {
	c.Stats.BytesSent.Store(0)
	c.Stats.Messages.Store(0)
	c.Stats.Exchanges.Store(0)
	c.Stats.AllToAlls.Store(0)
	c.Stats.Rounds.Store(0)
}
