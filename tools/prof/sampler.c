/* LD_PRELOAD CPU-time sampler: SIGPROF every PROF_US (default 1000) µs of
 * process CPU time, one backtrace() per sample into a static buffer, dumped
 * at exit with /proc/self/maps to PROF_OUT (default prof.<pid>.out) for
 * tools/prof/report.py. Build and use: see EXPERIMENTS.md, "Profiling".
 * The timer counts CPU time of all threads, user and kernel: a thread asleep
 * in futex() is not sampled, the syscall's own entry/exit work is. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

enum { MAX_SAMPLES = 1 << 18, DEPTH = 32, SKIP = 2 /* on_prof + trampoline */ };
static void *frames[MAX_SAMPLES][DEPTH];
static unsigned char depth[MAX_SAMPLES];
static int n_samples;

static void on_prof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) depth[i] = (unsigned char)backtrace(frames[i], DEPTH);
}

static void set_timer(long us) {
    struct itimerval it = {{0, us}, {0, us}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    const char *us = getenv("PROF_US");
    set_timer(us ? atol(us) : 1000);
}

__attribute__((destructor)) static void dump(void) {
    set_timer(0);
    char path[64], line[1024];
    snprintf(path, sizeof path, "prof.%d.out", (int)getpid());
    const char *to = getenv("PROF_OUT");
    FILE *out = fopen(to ? to : path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    int n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (int i = 0; i < n; i++) { /* innermost frame first */
        fputc('S', out);
        for (int j = SKIP; j < depth[i]; j++) fprintf(out, " %p", frames[i][j]);
        fputc('\n', out);
    }
    fclose(out);
}
