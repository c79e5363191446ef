"""Start the benchmark's child processes from a small process.

    python launcher.py   (started by run.py; one request per stdin line)

On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process
that spawned it, because the spawning process's memory counts until the
child calls exec.  run.py imports networkx and holds outputs in memory,
so its children would report its size, not their own.  This process
stays small and does the spawning instead.

Each request is a JSON list ``[argv, cwd, env, stdout path, stderr
path]``; each reply is ``[exit code, wall s, peak RSS MB, start]``,
where start is the `time.perf_counter` reading just before the spawn.
"""

import json
import os
import sys
from time import perf_counter


def main():
    for line in sys.stdin:
        argv, cwd, env, out_path, err_path = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
        ]
        os.chdir(cwd)
        start = perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start
        reply = [os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024, start]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
