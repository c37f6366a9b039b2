"""Keep one core out of its idle states without taking CPU from the run.

Usage: ``busy.py`` (started on the core it should keep busy).

On a virtual machine whose vCPUs share their host with other tenants
(this benchmark was measured on 2 vCPUs of an Intel Xeon under KVM), a
core that sits idle between requests runs the next one about twice as
slowly as a busy core, so a lightly loaded server measured slower than a
heavily loaded one, and by a different amount every run.  This loop runs
at ``SCHED_IDLE`` priority: the kernel gives it the core only when
nothing else wants it, and preempts it the moment a server or generator
task wakes.  It exits when its parent does.
"""

import os


def main() -> None:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    parent = os.getppid()
    while os.getppid() == parent:
        for _ in range(100_000):
            pass


if __name__ == "__main__":
    main()
