"""Frame + event multi-domain visual tracking lab.

A numpy-only library: synthesize or load frame sequences, simulate an
event camera over them, stack events into count/timestamp grids, and run
the fusion network (spiking event branch, convolutional frame branch,
shared common branch, multi-domain heads) forward, backward and through
SGD training, with checkpoints on disk. There is no online tracker,
evaluation harness, service or command-line entry point yet.
"""

__version__ = "0.1.0"
