package simplex

// KernelNames lists the row kernels this CPU can run, by name, the
// portable loop first.
func KernelNames() []string {
	var names []string
	for _, k := range kernels() {
		names = append(names, k.name)
	}
	return names
}

// UseKernel makes Solve run on the named kernel until the returned func
// restores the probe's pick. Solve reads the pick on entry, so no test
// may solve concurrently with the swap.
func UseKernel(name string) (restore func()) {
	for _, k := range kernels() {
		if k.name == name {
			old := picked
			picked = k.id
			return func() { picked = old }
		}
	}
	panic("simplex: no runnable kernel " + name)
}

// RetainedRegions is how many tableau regions the free list holds.
func RetainedRegions() int { return len(regions) }

// RegionLimit is the most tableau regions the free list retains.
func RegionLimit() int { return cap(regions) }

// DropRegions unmaps every retained tableau region, so the next solve
// runs on fresh storage.
func DropRegions() { dropRegions() }
