// Clang thread-safety (capability) annotation macros.
//
// These expand to Clang's `__attribute__((capability(...)))` family when the
// compiler supports them (`clang++ -Wthread-safety`) and to nothing on every
// other compiler, so annotated code stays portable to GCC while the clang CI
// leg enforces the locking protocol at compile time with
// `-Wthread-safety -Werror=thread-safety`.
//
// The annotations express Daisy's concurrency contracts in types:
//
//   * DAISY_GUARDED_BY(mu)    — field may only be read with `mu` held
//                               (shared or exclusive) and written with `mu`
//                               held exclusively.
//   * DAISY_REQUIRES(mu)      — function may only be called with `mu` held
//                               exclusively (REQUIRES_SHARED: held at all).
//   * DAISY_ACQUIRE/RELEASE   — function acquires/releases `mu` (used on the
//                               lock wrappers in common/mutex.h).
//   * DAISY_EXCLUDES(mu)      — function must NOT be entered with `mu` held
//                               (deadlock guard for wait-style calls).
//
// Use the daisy::Mutex / daisy::SharedMutex wrappers (common/mutex.h) rather
// than std:: primitives: the std:: types carry no annotations, so locking
// through them is invisible to the analysis (and scripts/daisy_lint.py
// rejects them outside the wrapper header and the approved worker-pool
// files).
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#ifndef DAISY_COMMON_THREAD_ANNOTATIONS_H_
#define DAISY_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DAISY_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef DAISY_THREAD_ANNOTATION__
#define DAISY_THREAD_ANNOTATION__(x)  // no-op on GCC and older clang
#endif

/// Marks a class as a lockable capability ("mutex", "shared_mutex", ...).
#define DAISY_CAPABILITY(x) DAISY_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define DAISY_SCOPED_CAPABILITY DAISY_THREAD_ANNOTATION__(scoped_lockable)

/// Field is protected by the given capability.
#define DAISY_GUARDED_BY(x) DAISY_THREAD_ANNOTATION__(guarded_by(x))

/// Caller must hold the capability exclusively.
#define DAISY_REQUIRES(...) \
  DAISY_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Caller must hold the capability at least shared.
#define DAISY_REQUIRES_SHARED(...) \
  DAISY_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively (held on return).
#define DAISY_ACQUIRE(...) \
  DAISY_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function acquires the capability shared.
#define DAISY_ACQUIRE_SHARED(...) \
  DAISY_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (exclusive hold).
#define DAISY_RELEASE(...) \
  DAISY_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function releases the capability (shared hold).
#define DAISY_RELEASE_SHARED(...) \
  DAISY_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock guard).
#define DAISY_EXCLUDES(...) \
  DAISY_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Escape hatch for code whose protocol the analysis cannot express (each
/// use carries a comment saying why — see docs/architecture.md).
#define DAISY_NO_THREAD_SAFETY_ANALYSIS \
  DAISY_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif  // DAISY_COMMON_THREAD_ANNOTATIONS_H_
