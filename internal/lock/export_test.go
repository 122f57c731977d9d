package lock

// residentState reports the total lock-table entries and holder-index
// entries across all shards, for leak checks in tests.
func (m *Manager) residentState() (resources, holders int) {
	for _, s := range m.shards {
		s.mu.Lock()
		resources += len(s.table)
		holders += len(s.held)
		s.mu.Unlock()
	}
	return
}
