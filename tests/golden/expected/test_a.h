// Auto-generated unit test scaffolding. Edit only between
// ULTGEN-ANCHOR markers; regeneration keeps those regions.
#ifndef ULTGEN_TEST_A_H
#define ULTGEN_TEST_A_H

class Test_A : public A
{
public:
    void func1Test()
    {
        // ULTGEN-ANCHOR: TestBody(func1)
        // ULTGEN-END
    }
    void func2Test()
    {
        // ULTGEN-ANCHOR: TestBody(func2)
        // ULTGEN-END
    }
};

#endif
