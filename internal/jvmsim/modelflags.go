package jvmsim

import "repro/internal/flags"

// modelFlags are the flags the cost model reads, resolved to IDs once per
// registry: every simulated run reads them through the IDs, with no
// flag-name lookup on the measurement path.
type modelFlags struct {
	AggressiveOpts, AlwaysPreTouch, BackgroundCompilation,
	BindGCTaskThreadsToCPUs, CMSClassUnloadingEnabled,
	CMSParallelRemarkEnabled, CMSScavengeBeforeRemark, ClassUnloading,
	ClipInlining, CompactStrings, DisableExplicitGC, DoEscapeAnalysis,
	EliminateAllocations, EliminateLocks, ExplicitGCInvokesConcurrent,
	InlineSynchronizedMethods, OptimizeStringConcat,
	ParallelRefProcEnabled, RangeCheckElimination, ReduceSignalUsage,
	ScavengeBeforeFullGC, TieredCompilation, UseAdaptiveSizePolicy,
	UseBiasedLocking, UseCMSInitiatingOccupancyOnly, UseCodeCacheFlushing,
	UseCompressedOops, UseCondCardMark, UseCounterDecay,
	UseFastAccessorMethods, UseGCOverheadLimit, UseGCTaskAffinity,
	UseLargePages, UseLoopPredicate, UseNUMA, UseParNewGC,
	UseParallelOldGC, UsePerfData, UseSpinLocks, UseStringCache,
	UseSuperWord, UseTLAB flags.BoolID

	BiasedLockingStartupDelay, CICompilerCount,
	CMSFullGCsBeforeCompaction, CMSInitiatingOccupancyFraction,
	CompileThreshold, ConcGCThreads, FreqInlineSize, G1HeapRegionSize,
	G1HeapWastePercent, G1MixedGCCountTarget, G1ReservePercent,
	InitialCodeCacheSize, InitialHeapSize, InitiatingHeapOccupancyPercent,
	InlineSmallCode, InterpreterProfilePercentage, LoopUnrollLimit,
	MaxGCPauseMillis, MaxHeapSize, MaxInlineLevel, MaxInlineSize,
	MaxNewSize, MaxPermSize, MaxRecursiveInlineLevel,
	MaxTenuringThreshold, MinHeapFreeRatio, NewRatio, NewSize,
	OnStackReplacePercentage, ParallelGCThreads, PermSize,
	PretenureSizeThreshold, ReservedCodeCacheSize, SurvivorRatio,
	TLABSize, TargetSurvivorRatio, ThreadStackSize, TieredStopAtLevel flags.IntID
}

var modelIDs flags.IDTable[modelFlags]

// idsOf returns the model's flag IDs for c's registry.
func idsOf(c *flags.Config) *modelFlags { return modelIDs.For(c.Registry()) }
