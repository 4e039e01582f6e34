/* Wall-clock stack sampler for one process, no perf / ptrace needed.
 *
 *   cc -O2 -shared -fPIC -o wallprof.so tools/wallprof.c
 *   WALLPROF_OUT=run.prof LD_PRELOAD=./wallprof.so ./lumina-cli cfg.yaml --json
 *   python3 tools/wallprof.py ./lumina-cli run.prof
 *
 * A CLOCK_MONOTONIC timer raises SIGPROF every 100 us (wall time, so
 * waiting shows up too); the handler stores backtrace() into a fixed
 * buffer. At exit sampling stops first, then /proc/self/maps (the run's
 * ASLR bases) and the raw stacks go to $WALLPROF_OUT (default
 * wallprof.out). `just profile <workload>` drives all three steps.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

enum { DEPTH = 48, SAMPLES = 1 << 17, PERIOD_NS = 100000 };

static void *stacks[SAMPLES][DEPTH]; /* bss: pages are touched as they fill */
static int depths[SAMPLES];
static volatile int taken;
static timer_t timer;

static void on_tick(int sig) {
    (void)sig;
    if (taken < SAMPLES) {
        depths[taken] = backtrace(stacks[taken], DEPTH);
        taken++;
    }
}

static void dump(void) {
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);
    const char *path = getenv("WALLPROF_OUT");
    FILE *out = fopen(path ? path : "wallprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[512];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    for (int i = 0; i < taken; i++) {
        fputc('S', out);
        for (int d = 0; d < depths[i]; d++)
            fprintf(out, " %lx", (unsigned long)stacks[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa = {.sa_handler = on_tick, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    struct itimerspec every = {{0, PERIOD_NS}, {0, PERIOD_NS}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) {
        timer_settime(timer, 0, &every, NULL);
        atexit(dump);
    }
}
