/* A sampling profiler for unmodified Release binaries, loaded with
 * LD_PRELOAD:
 *
 *   FASTCONS_SAMPLES=prof.txt LD_PRELOAD=libfastcons_sampler.so <program>
 *   python3 tools/profile/resolve.py prof.txt
 *
 * While the program runs, ITIMER_PROF raises SIGPROF once per millisecond
 * of CPU time (the kernel rounds up to its tick), and the handler records
 * the interrupted instruction pointer. At exit the library writes the executable mappings
 * of the process and one line per distinct sampled address with its count
 * to $FASTCONS_SAMPLES; resolve.py turns them into per-function shares.
 *
 * Unlike a -pg build, the profiled binary is the one that ships: inlining
 * is unchanged and time in libc (malloc, free, memcpy) is counted. Without
 * FASTCONS_SAMPLES set the library does nothing. Samples past the buffer's
 * capacity are counted as dropped, not recorded. x86-64 only: the handler
 * reads the interrupted RIP. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define SAMPLE_CAPACITY (1u << 21)
#define SAMPLE_INTERVAL_US 1000

static uintptr_t samples[SAMPLE_CAPACITY];
static unsigned long sample_count; /* may exceed SAMPLE_CAPACITY */
static int sampling;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const unsigned long slot =
      __atomic_fetch_add(&sample_count, 1, __ATOMIC_RELAXED);
  if (slot < SAMPLE_CAPACITY) {
    const ucontext_t* uc = context;
    samples[slot] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  }
}

static int compare_pc(const void* a, const void* b) {
  const uintptr_t x = *(const uintptr_t*)a;
  const uintptr_t y = *(const uintptr_t*)b;
  return (x > y) - (x < y);
}

/* Copies the executable lines of /proc/self/maps as
 * "map <start> <end> <file offset> <path>". */
static void write_maps(FILE* out) {
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps == NULL) return;
  char line[4096];
  while (fgets(line, sizeof line, maps) != NULL) {
    unsigned long start, end, offset;
    char perms[8];
    int path_at = 0;
    if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &start, &end, perms,
               &offset, &path_at) < 4 ||
        perms[2] != 'x' || path_at == 0) {
      continue;
    }
    char* path = line + path_at;
    path[strcspn(path, "\n")] = '\0';
    if (path[0] == '\0') continue;
    fprintf(out, "map %lx %lx %lx %s\n", start, end, offset, path);
  }
  fclose(maps);
}

__attribute__((destructor)) static void stop_sampling(void) {
  if (!sampling) return;
  sampling = 0;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);

  const char* path = getenv("FASTCONS_SAMPLES");
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    fprintf(stderr, "sampler: cannot write %s\n", path);
    return;
  }
  const unsigned long taken = sample_count;
  const unsigned long kept =
      taken < SAMPLE_CAPACITY ? taken : SAMPLE_CAPACITY;
  fprintf(out, "# fastcons sampler: %lu samples, %lu dropped\n", taken,
          taken - kept);
  write_maps(out);
  qsort(samples, kept, sizeof samples[0], compare_pc);
  for (unsigned long i = 0; i < kept;) {
    unsigned long j = i;
    while (j < kept && samples[j] == samples[i]) ++j;
    fprintf(out, "pc %lx %lu\n", (unsigned long)samples[i], j - i);
    i = j;
  }
  fclose(out);
}

__attribute__((constructor)) static void start_sampling(void) {
  if (getenv("FASTCONS_SAMPLES") == NULL) return;

  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, NULL) != 0) return;

  struct itimerval every;
  every.it_interval.tv_sec = 0;
  every.it_interval.tv_usec = SAMPLE_INTERVAL_US;
  every.it_value = every.it_interval;
  if (setitimer(ITIMER_PROF, &every, NULL) != 0) return;
  sampling = 1;
}
