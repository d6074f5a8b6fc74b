"""A process-pool chunk task that kills its worker mid-chunk.

It lives in its own small module, not in a test module, so a forkserver
child can import it by name without importing a whole test file.
"""

import os


def die_mid_chunk(payload):
    os._exit(1)
