package ir

// TrackAllSlots makes machines built until restore is called track every
// field and the sizes of every list buffer slot.
func TrackAllSlots() (restore func()) {
	trackAllSlots = true
	return func() { trackAllSlots = false }
}
