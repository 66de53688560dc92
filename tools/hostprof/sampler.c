/* hostprof: a SIGPROF stack sampler preloaded into an unmodified binary.
 *
 *   cc -O2 -shared -fPIC -o libhostprof.so sampler.c
 *   HOSTPROF_OUT=run.raw LD_PRELOAD=./libhostprof.so <program> <args>
 *
 * The constructor arms ITIMER_PROF (on-CPU time, HOSTPROF_US microseconds,
 * default 2000); the handler stores backtrace() into a static buffer; the
 * destructor writes /proc/self/maps, a "--" line, then one line of raw
 * return addresses per sample. symbolize.py turns that into tables. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define DEPTH 48
#define MAX_SAMPLES (1 << 18)

static void *frames[MAX_SAMPLES][DEPTH];
static unsigned char depth[MAX_SAMPLES];
static volatile int taken;

static void on_prof(int sig) {
    (void)sig;
    if (taken < MAX_SAMPLES) {
        depth[taken] = (unsigned char)backtrace(frames[taken], DEPTH);
        taken++;
    }
}

__attribute__((constructor)) static void start(void) {
    /* The first backtrace() loads the unwinder, which may allocate: do it
     * here, not in the handler. */
    void *warm[4];
    backtrace(warm, 4);
    const char *us = getenv("HOSTPROF_US");
    long period = us ? atol(us) : 2000;
    struct sigaction sa = {.sa_handler = on_prof, .sa_flags = SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{period / 1000000, period % 1000000},
                           {period / 1000000, period % 1000000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.raw", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fclose(maps);
    fputs("--\n", out);
    for (int s = 0; s < taken; s++) {
        for (int f = 0; f < depth[s]; f++)
            fprintf(out, "%p ", frames[s][f]);
        fputc('\n', out);
    }
    fclose(out);
}
