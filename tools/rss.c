/* Peak memory of a command, read the way the benchmark reads it: fork,
 * exec, wait4(2), and the child's own rusage, so nothing of this process
 * is in the reading.
 *
 *   cc -O2 -o rss tools/rss.c
 *   ./rss 10 ./lumina-cli cfg.yaml --json
 *
 * Runs the command RUNS times, its stdout and stderr to /dev/null, and
 * prints one line per run (wall ms, ru_maxrss kB, minor faults, exit
 * status), then the median of each column. `just rss <workload>` drives
 * it with the argument lists `just profile` uses.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static double now_ms(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

static int by_value(const void *a, const void *b) {
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

static double median(double *v, int n) {
    qsort(v, n, sizeof *v, by_value);
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int main(int argc, char **argv) {
    int runs = argc > 2 ? atoi(argv[1]) : 0;
    if (runs < 1) {
        fprintf(stderr, "usage: %s RUNS CMD [ARGS...]\n", argv[0]);
        return 2;
    }
    double *wall = calloc(runs, sizeof *wall);
    double *rss = calloc(runs, sizeof *rss);
    double *faults = calloc(runs, sizeof *faults);
    if (!wall || !rss || !faults) {
        perror("calloc");
        return 1;
    }
    int failed = 0;
    printf("run  wall_ms  maxrss_kB  minflt  status\n");
    for (int i = 0; i < runs; i++) {
        double start = now_ms();
        pid_t pid = fork();
        if (pid < 0) {
            perror("fork");
            return 1;
        }
        if (pid == 0) {
            int null = open("/dev/null", O_RDWR);
            if (null >= 0) {
                dup2(null, STDIN_FILENO);
                dup2(null, STDOUT_FILENO);
                dup2(null, STDERR_FILENO);
            }
            execvp(argv[2], argv + 2);
            _exit(127);
        }
        int status;
        struct rusage ru;
        while (wait4(pid, &status, 0, &ru) < 0) {
            if (errno != EINTR) {
                perror("wait4");
                return 1;
            }
        }
        wall[i] = now_ms() - start;
        rss[i] = ru.ru_maxrss;
        faults[i] = ru.ru_minflt;
        int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        failed += code == 127 || code < 0;
        printf("%3d  %7.1f  %9ld  %6ld  %d\n", i + 1, wall[i], ru.ru_maxrss, ru.ru_minflt, code);
    }
    printf("median  %.1f ms  %.0f kB  %.0f minor faults\n", median(wall, runs),
           median(rss, runs), median(faults, runs));
    return failed ? 1 : 0;
}
