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

// ReflectUniform is the reflection on a register whose sum is unknown:
// its sum pass, then its update pass.
func (c *Cluster) ReflectUniform() { c.reflect(Sum{}, false) }

// identityPlacement reports whether logical and physical qubits coincide.
func (c *Cluster) identityPlacement() bool {
	for q, p := range c.pos {
		if uint(q) != p {
			return false
		}
	}
	return true
}
