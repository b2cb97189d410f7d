/*===--- runtime/ddr_abi.h - the native C ABI of generated programs ---------===*
 *
 * Part of the Diderot-C++ reproduction (PLDI 2012).
 *
 *===----------------------------------------------------------------------===*/
/**
 * \file
 * The one layout shared by a generated shared object and the loader that
 * dlopens it ("Diderot programs to be embedded as libraries in any host
 * language that supports calling C code" — Section 7). Plain C, fixed-width
 * types: runtime/native_prelude.h and codegen/native_load.cpp both include
 * this header, so the layout is defined once, and it is part of the runtime
 * header closure every cache key digests.
 *
 * A generated .so exports exactly these symbols (docs/OBSERVABILITY.md):
 *
 *   int         ddr_abi_version(void);      returns DdrAbiVersion
 *   void       *ddr_create(void);
 *   void        ddr_destroy(void *);
 *   const char *ddr_error(void *);
 *   int         ddr_set_input_scalars(void *, const char *, const double *,
 *                                     int);
 *   int         ddr_set_input_string(void *, const char *, const char *);
 *   int         ddr_set_input_image(void *, const char *, int dim,
 *                                   const int64_t *sizes, int64_t ncomp,
 *                                   const double *data, const double *w2i,
 *                                   const double *gradxf,
 *                                   const double *origin);
 *   int         ddr_initialize(void *);
 *   int         ddr_run(void *, const struct ddr_run_args *);
 *   int64_t     ddr_read(void *, int kind, uint64_t *out, int64_t cap);
 *   const char *ddr_fault_msg(void *, int64_t index);
 *   int         ddr_output_dims(void *, int64_t *dims, int maxd);
 *   int64_t     ddr_get_output(void *, const char *, double *, int64_t);
 */

#ifndef DIDEROT_RUNTIME_DDR_ABI_H
#define DIDEROT_RUNTIME_DDR_ABI_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/** Version of this ABI. Part of every cache key, and checked by the loader
 *  against ddr_abi_version() right after dlopen: bump it whenever a
 *  symbol, a struct field, or a ddr_read layout changes. */
enum { DdrAbiVersion = 9 };

/** Everything one ddr_run call needs. Collect fields are 0/1. */
struct ddr_run_args {
  int32_t max_steps;
  int32_t workers;    /**< <= 0 selects the sequential scheduler */
  int32_t block_size; /**< strands per work-list block */
  /* Observability layers (observe/): all off costs nothing. */
  uint8_t stats;
  uint8_t profile;
  uint8_t lifecycle; /**< implies stats */
  uint8_t metrics;   /**< implies stats */
  uint8_t digests;
  uint8_t state_log; /**< implies digests */
  /* Run policy (rt::RunPolicy); inert at 0 / -1 / 0 / 0 and no plan. */
  uint8_t strict_fp;
  int32_t watchdog_steps;
  int64_t deadline_ns;
  int64_t max_faults;
  const uint64_t *fault_plan; /**< observe::flattenPlan layout, or null */
  int64_t fault_plan_words;
};

/** What ddr_read copies out (each an observe:: flat layout). ddr_read
 *  returns the word count the snapshot needs and writes it only when that
 *  count fits \p cap, so a caller grows its buffer and retries until the
 *  result is at most \p cap. */
enum ddr_read_kind {
  DDR_READ_COUNTS = 0,  /**< [outcome, strands, stable, dead, faulted] */
  DDR_READ_STATS = 1,   /**< flattenStats of the last collected run */
  DDR_READ_TRACE = 2,   /**< flattenEvents (lifecycle) */
  DDR_READ_PROF = 3,    /**< flattenProfile counters */
  DDR_READ_PROF_MAP = 4, /**< static (line, class) site map */
  DDR_READ_METRICS = 5, /**< flattenMetrics; safe during a run */
  DDR_READ_FAULTS = 6,  /**< flattenFaults; messages via ddr_fault_msg */
  DDR_READ_DIGEST = 7,  /**< flattenDigests */
  DDR_READ_STATE = 8,   /**< flattenStates; 0 words unless state_log */
};

/** Words in a DDR_READ_COUNTS snapshot. */
enum { DDR_COUNTS_WORDS = 5 };

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* DIDEROT_RUNTIME_DDR_ABI_H */
